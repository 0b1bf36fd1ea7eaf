package core

import (
	"fmt"

	"geostreams/internal/stream"
	"geostreams/internal/valueset"
)

// BuildNDVI wires the normalized difference vegetation index — the
// paper's running example data product (§3.3, §3.4):
//
//	NDVI = (NIR − VIS) / (NIR + VIS)
//
// Each input band is consumed twice, so both are teed; the result is the
// operator DAG
//
//	nir ──┬─(−)──┐
//	vis ──┤      ├─(÷)── ndvi
//	      └─(+)──┘
//
// The returned stats are the three composition operators' instances
// (sub, add, div), whose buffering the compose tests inspect.
func BuildNDVI(g *stream.Group, nir, vis *stream.Stream) (*stream.Stream, []*stream.Stats, error) {
	nirT := stream.Tee(g, nir, 2)
	visT := stream.Tee(g, vis, 2)

	diff, stSub, err := stream.Apply2(g, Compose{Gamma: valueset.Sub, OutBand: "nir-vis"}, nirT[0], visT[0])
	if err != nil {
		return nil, nil, fmt.Errorf("ndvi: %w", err)
	}
	sum, stAdd, err := stream.Apply2(g, Compose{Gamma: valueset.Add, OutBand: "nir+vis"}, nirT[1], visT[1])
	if err != nil {
		return nil, nil, fmt.Errorf("ndvi: %w", err)
	}
	ndvi, stDiv, err := stream.Apply2(g, Compose{Gamma: valueset.Div, OutBand: "ndvi"}, diff, sum)
	if err != nil {
		return nil, nil, fmt.Errorf("ndvi: %w", err)
	}
	// NDVI is bounded in [-1, 1] by construction.
	info := ndvi.Info
	info.VMin, info.VMax = -1, 1
	out := &stream.Stream{Info: info, C: ndvi.C}
	return out, []*stream.Stats{stSub, stAdd, stDiv}, nil
}
