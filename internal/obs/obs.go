// Package obs is the observability substrate of the GeoStreams engine:
// lock-free fixed-bucket histograms for latency and data-freshness
// measurement, a Prometheus text-exposition writer and collector registry
// backing the DSMS `GET /metrics` endpoint, and a small structured-logging
// facade over log/slog.
//
// The package deliberately depends only on the standard library and is
// imported by internal/stream (the hot path), so everything here is
// allocation-free and atomic on the recording side: a Histogram.Observe is
// two atomic adds and a CAS loop on the sum bits.
//
// The paper's §3 space-complexity claims (restrictions buffer nothing, a
// stretch buffers one frame, composition buffers one image vs. one row)
// are asserted by the operator tests in internal/core; the metrics
// exported through this package let a running server *continuously*
// observe the same invariants — peak buffered points per operator,
// per-chunk processing latency, and end-to-end chunk age ("data
// freshness"), the user-facing SLO of a streaming imagery service.
package obs
