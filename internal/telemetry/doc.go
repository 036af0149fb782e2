// Package telemetry is the repository's observability layer: control-path
// tracing (one span timeline per reactive flow, exportable as Chrome
// trace-event JSON), a registry of scrape-time counter and gauge functions
// written in Prometheus text format for the live daemons, and an HTTP
// endpoint serving /metrics and /debug/pprof.
//
// Tracing is designed to be zero-cost when disabled: a nil *Tracer
// accepts every method call as a no-op without allocating, so the
// simulator's hot paths (pinned at 0 allocs/op in the benchmark suite)
// carry the hooks permanently and pay only a nil check when tracing is
// off. Recording never schedules simulation
// events or consumes model randomness, so enabling a tracer cannot
// perturb the same-seed byte-identical determinism guarantee. The
// fault-injection harness reuses the same pattern and stamps each
// injected fault as a trace mark.
package telemetry
