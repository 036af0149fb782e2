package obs

import (
	"fmt"
	"io"

	"scotch/internal/sim"
)

// digestPoints bounds the per-series timeline kept in a digest; longer
// runs are mean-downsampled to this many points.
const digestPoints = 64

// sparkWidth is the width of the ASCII timeline in the text rendering.
const sparkWidth = 40

// Digest is a deterministic end-of-run health report: per-component load
// timelines, SLO verdict paths, and burn-rate peaks. It is pure data —
// safe to marshal as JSON (the health_<id>.json CI artifact) or render
// as text (`scotchsim run <id> -health`). Determinism follows from the
// observatory's: all timestamps are simulation time and all aggregation
// is order-stable.
type Digest struct {
	// Name labels the run this digest describes (e.g. "run1").
	Name string `json:"name"`
	// End is the newest sample's simulation time.
	End sim.Time `json:"end"`
	// Samples is the number of sampling ticks taken.
	Samples uint64 `json:"samples"`
	// Components holds one timeline per observed subsystem, sorted.
	Components []ComponentDigest `json:"components"`
	// SLOs holds one verdict report per configured SLO.
	SLOs []SLODigest `json:"slos,omitempty"`
	// Captures is the number of breach profile captures written (0
	// unless a ProfileDir was configured).
	Captures int `json:"captures,omitempty"`
}

// ComponentDigest is one subsystem's series timelines.
type ComponentDigest struct {
	Name   string         `json:"name"`
	Series []SeriesDigest `json:"series"`
}

// SeriesDigest is one series' downsampled timeline plus its summary.
type SeriesDigest struct {
	Name    string  `json:"name"`
	Summary Summary `json:"summary"`
	// Points is the mean-downsampled timeline (at most digestPoints).
	Points []Point `json:"points,omitempty"`
}

// SLODigest is one SLO's end-of-run verdict report.
type SLODigest struct {
	Name     string  `json:"name"`
	Tenant   string  `json:"tenant"`
	Quantile float64 `json:"quantile"`
	// TargetSeconds is the latency objective in seconds.
	TargetSeconds float64 `json:"target_seconds"`
	// Final is the verdict at end of run.
	Final Verdict `json:"final"`
	// VerdictPath is the full verdict sequence, e.g.
	// "healthy->burning->healthy".
	VerdictPath string `json:"verdict_path"`
	// Transitions timestamps each verdict flip.
	Transitions []Transition `json:"transitions,omitempty"`
	// PeakBurnShort/PeakBurnLong are the maximum burn rates observed on
	// each window over the whole run.
	PeakBurnShort float64 `json:"peak_burn_short"`
	PeakBurnLong  float64 `json:"peak_burn_long"`
	// PeakWindowQuantileSeconds is the worst long-window quantile seen.
	PeakWindowQuantileSeconds float64 `json:"peak_window_quantile_seconds"`
	// Samples counts evaluation ticks; 0 means the tenant never
	// produced data (reported as healthy by definition).
	Samples uint64 `json:"samples"`
	// BurnTimeline is the downsampled long-window burn-rate series.
	BurnTimeline []Point `json:"burn_timeline,omitempty"`
}

// Digest assembles the end-of-run health digest under the given run
// name. Nil-safe: a nil observatory yields an empty digest.
func (o *Observatory) Digest(name string) *Digest {
	d := &Digest{Name: name}
	if o == nil {
		return d
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	d.Samples = o.samples
	d.Captures = o.captures
	for _, c := range o.sortedComponents() {
		cd := ComponentDigest{Name: c.name}
		for _, s := range c.series {
			pts := s.ring.Points()
			if p, ok := s.ring.Last(); ok && p.T > d.End {
				d.End = p.T
			}
			cd.Series = append(cd.Series, SeriesDigest{
				Name:    s.name,
				Summary: Summarize(pts),
				Points:  Downsample(pts, digestPoints),
			})
		}
		d.Components = append(d.Components, cd)
	}
	for _, s := range o.slos {
		sd := SLODigest{
			Name:                      s.def.Name,
			Tenant:                    s.def.Tenant,
			Quantile:                  s.def.Quantile,
			TargetSeconds:             s.def.Target.Seconds(),
			Final:                     s.verdict,
			VerdictPath:               VerdictPath(s.transitions),
			Transitions:               append([]Transition(nil), s.transitions...),
			PeakBurnShort:             s.peakShort,
			PeakBurnLong:              s.peakLong,
			PeakWindowQuantileSeconds: s.peakWindowQ,
			Samples:                   s.samples,
		}
		if s.burnLong != nil {
			sd.BurnTimeline = Downsample(s.burnLong.Points(), digestPoints)
		}
		d.SLOs = append(d.SLOs, sd)
	}
	return d
}

// SLO returns the named SLO report, or nil when absent.
func (d *Digest) SLO(name string) *SLODigest {
	if d == nil {
		return nil
	}
	for i := range d.SLOs {
		if d.SLOs[i].Name == name {
			return &d.SLOs[i]
		}
	}
	return nil
}

// WriteText renders the digest as a fixed-width report: SLO verdicts
// first, then one sparkline row per component series. Deterministic for
// a deterministic run.
func (d *Digest) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "health digest %s: %d samples to t=%v\n",
		d.Name, d.Samples, d.End); err != nil {
		return err
	}
	for _, s := range d.SLOs {
		status := s.VerdictPath
		if s.Samples == 0 {
			status += " (no data)"
		}
		if _, err := fmt.Fprintf(w,
			"  slo %-12s tenant=%-8s p%g<%gs  verdict=%s  peak_burn=%.2f/%.2f  peak_p%g=%.4fs\n",
			s.Name, s.Tenant, s.Quantile*100, s.TargetSeconds, status,
			s.PeakBurnShort, s.PeakBurnLong, s.Quantile*100, s.PeakWindowQuantileSeconds); err != nil {
			return err
		}
		for _, tr := range s.Transitions {
			if _, err := fmt.Fprintf(w, "       t=%-8v %s -> %s\n", tr.At, tr.From, tr.To); err != nil {
				return err
			}
		}
	}
	if d.Captures > 0 {
		if _, err := fmt.Fprintf(w, "  breach profile captures: %d\n", d.Captures); err != nil {
			return err
		}
	}
	for _, c := range d.Components {
		for _, s := range c.Series {
			if _, err := fmt.Fprintf(w, "  %-18s %-22s [%-*s] last=%-10.4g max=%-10.4g mean=%.4g\n",
				c.Name, s.Name, sparkWidth, Spark(s.Points),
				s.Summary.Last, s.Summary.Max, s.Summary.Mean); err != nil {
				return err
			}
		}
	}
	return nil
}
