// Package metrics provides the measurement primitives the experiments
// use: windowed rate meters and quantile histograms.
// All of them are driven by the simulator's virtual clock, so measurement
// never perturbs simulated time.
package metrics
