package main

import (
	"slices"
	"testing"
)

func TestSymbolKeys(t *testing.T) {
	const p = "geostreams/internal/geom"
	cases := []struct {
		sym  string
		want []string
	}{
		{p + ".(*Rect).Area", []string{p + ".Rect.Area"}},
		{p + ".Rect.Area", []string{p + ".Rect", p + ".Rect.Area"}},
		{p + ".Union", []string{p + ".Union"}},
		{p + ".Union.func1", []string{p + ".Union", p + ".Union.func1"}},
		{p + ".(*Tree).Probe.func2", []string{p + ".Tree.Probe"}},
		{p + ".init.0", []string{p + ".init", p + ".init.0"}},
		{p + ".MapRows[go.shape.*geostreams/internal/imagealg.Moments]", []string{p + ".MapRows"}},
		{p + ".(*Set[go.shape.[]float64]).Add", []string{p + ".Set.Add"}},
		{p + ".Rect.String-fm", []string{p + ".Rect", p + ".Rect.String"}},
		{"geostreams/cmd/geoserver.main", nil},
		{"runtime.main", nil},
	}
	for _, c := range cases {
		if got := symbolKeys(c.sym); !slices.Equal(got, c.want) {
			t.Errorf("symbolKeys(%q) = %q, want %q", c.sym, got, c.want)
		}
	}
}
