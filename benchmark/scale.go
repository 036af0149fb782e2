package main

import (
	"math"
	"time"
)

// scale fixes how much work each workload does. Simulator workloads do a
// fixed amount of *simulated* work, sized so that the timed section takes
// about `seconds` of host time on the 2-core reference box; a faster
// commit finishes sooner instead of doing more, so counts, digests and
// retained memory compare exactly across commits. Live workloads run for a
// fixed host duration.
type scale struct {
	Seconds float64 `json:"seconds"`
	Smoke   bool    `json:"smoke"`

	// ddos-overlay: untimed warm-up until the 10 s idle timeout has the
	// tables at their steady size, then the timed span, then a 1 s drain.
	DDoSWarm  time.Duration `json:"ddos_warm_sim_ns"`
	DDoSTimed time.Duration `json:"ddos_timed_sim_ns"`

	// fattree-elephants: senders per host, packets per back-to-back
	// transfer at 1 ms spacing, the untimed warm-up and the timed span.
	FatFlowsPerHost int           `json:"fattree_flows_per_host"`
	FatTransfer     int           `json:"fattree_packets_per_transfer"`
	FatWarm         time.Duration `json:"fattree_warm_sim_ns"`
	FatTimed        time.Duration `json:"fattree_timed_sim_ns"`

	// live-packetin phases and the live-flowmod-burst duration.
	PhaseA time.Duration `json:"live_phase_a_ns"`
	PhaseB time.Duration `json:"live_phase_b_ns"`
	Burst  time.Duration `json:"live_burst_ns"`

	// SpeedupSim is the simulated span of the serial-vs-sharded probe.
	SpeedupSim time.Duration `json:"sharded_probe_sim_ns"`
	// Builds and LiveBuilds are how many times set-up is repeated for
	// setup_s on the simulator and the live workloads. A live build takes
	// tens of milliseconds and its time depends on where the scheduler puts
	// the goroutines, so it is repeated more often.
	Builds     int `json:"setup_builds"`
	LiveBuilds int `json:"live_setup_builds"`

	// Probe sizing: testing.Benchmark's benchtime, how many runs the
	// fastest is taken of, and the size of the probes' big flow table. The
	// flowtable *_32k metrics mean 32k only at full scale; the smoke scale
	// fills a smaller table, because filling one is quadratic.
	ProbeBenchTime string `json:"probe_benchtime"`
	ProbeRepeats   int    `json:"probe_repeats"`
	ProbeBigTable  int    `json:"probe_big_table"`
}

// Host-seconds to simulated-work conversion, measured on the reference
// box: ddos-overlay simulates about 6.5 s per host second in steady state
// and fattree-elephants about 2.5 s.
const (
	ddosSimPerHostSecond = 6.5
	fatSimPerHostSecond  = 2.5
)

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// fullScale sizes every workload for a timed section of about seconds.
func fullScale(seconds float64) scale {
	return scale{
		Seconds:         seconds,
		DDoSWarm:        12 * time.Second,
		DDoSTimed:       time.Duration(math.Ceil(ddosSimPerHostSecond*seconds)) * time.Second,
		FatFlowsPerHost: 4,
		FatTransfer:     8000,
		FatWarm:         2500 * time.Millisecond,
		FatTimed:        time.Duration(math.Ceil(fatSimPerHostSecond*seconds)) * time.Second,
		PhaseA:          secs(0.4 * seconds),
		PhaseB:          secs(0.6 * seconds),
		Burst:           secs(seconds),
		SpeedupSim:      10 * time.Second,
		Builds:          5,
		LiveBuilds:      15,
		ProbeBenchTime:  "20ms",
		ProbeRepeats:    2,
		ProbeBigTable:   32 << 10,
	}
}

// smokeScale is the size the tests run at: 2 simulated seconds, half a
// second of live traffic, one build.
func smokeScale() scale {
	return scale{
		Seconds:         0.5,
		Smoke:           true,
		DDoSWarm:        time.Second,
		DDoSTimed:       2 * time.Second,
		FatFlowsPerHost: 1,
		FatTransfer:     1000,
		FatWarm:         2500 * time.Millisecond,
		FatTimed:        2 * time.Second,
		PhaseA:          200 * time.Millisecond,
		PhaseB:          300 * time.Millisecond,
		Burst:           500 * time.Millisecond,
		SpeedupSim:      2 * time.Second,
		Builds:          1,
		LiveBuilds:      1,
		ProbeBenchTime:  "1ms",
		ProbeRepeats:    1,
		ProbeBigTable:   4 << 10,
	}
}

// traced shrinks a scale for the traced run, which measures the same
// work twice (untraced and traced) and then runs the per-layer probes.
func (s scale) traced() scale {
	if s.Smoke {
		return s
	}
	t := fullScale(s.Seconds / 3)
	t.Seconds = s.Seconds
	t.Builds = 1
	return t
}
