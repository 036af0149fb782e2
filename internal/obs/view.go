package obs

import (
	"fmt"
	"io"

	"scotch/internal/sim"
)

// timelinePoints bounds each timeline a view carries; longer runs are
// mean-downsampled to this many points.
const timelinePoints = 64

// sparkWidth is the width of the ASCII timeline in the text rendering.
const sparkWidth = 40

// ClusterView is one consistent, point-in-time picture of an observed
// run: every sampled component series (summary plus timeline),
// per-tenant latency quantiles, and each SLO's current burn state and
// run peaks. It is the observatory's one report: the joint balancer
// reads it every tick, /statusz serves it live, and at end of run it is
// the health digest (`scotchsim run <id> -health` renders it with
// WriteText, -health-json marshals it). All fields are plain data — a
// view never aliases live observatory state — and, since all timestamps
// are simulation time and all aggregation is order-stable, a view of a
// deterministic run is deterministic.
type ClusterView struct {
	// Name labels the run the view describes (e.g. "run1"); empty for
	// a live /statusz view.
	Name string `json:"name,omitempty"`
	// At is the simulation time of the newest sample.
	At sim.Time `json:"at"`
	// Samples is the number of sampling ticks taken.
	Samples uint64 `json:"samples"`
	// Components holds one entry per observed subsystem, sorted by name.
	Components []ComponentView `json:"components"`
	// Tenants holds lifetime per-tenant latency quantiles, sorted by
	// tenant name (empty without a WatchLatency tracker).
	Tenants []TenantView `json:"tenants,omitempty"`
	// SLOs holds one report per configured SLO, in configuration order.
	SLOs []SLOView `json:"slos,omitempty"`
	// Captures is the number of breach profile captures written (0
	// unless a ProfileDir was configured).
	Captures int `json:"captures,omitempty"`
}

// ComponentView is one subsystem's sampled series.
type ComponentView struct {
	Name   string       `json:"name"`
	Series []SeriesView `json:"series"`
}

// SeriesView is one ring series: its summary over the retained window
// and its mean-downsampled timeline (at most timelinePoints).
type SeriesView struct {
	Name    string  `json:"name"`
	Summary Summary `json:"summary"`
	Points  []Point `json:"points,omitempty"`
}

// TenantView is one tenant's lifetime flow-setup latency distribution.
type TenantView struct {
	Tenant string  `json:"tenant"`
	Flows  uint64  `json:"flows"`
	P50    float64 `json:"p50_seconds"`
	P99    float64 `json:"p99_seconds"`
}

// SLOView is one SLO's state at the newest sample and its peaks over the
// run.
type SLOView struct {
	Name     string  `json:"name"`
	Tenant   string  `json:"tenant"`
	Quantile float64 `json:"quantile"`
	// TargetSeconds is the latency objective in seconds.
	TargetSeconds float64 `json:"target_seconds"`
	// Verdict is the verdict at the newest sample; in an end-of-run
	// view, the final one.
	Verdict Verdict `json:"verdict"`
	// WindowQuantileSeconds is the quantile over the long window at the
	// newest sample — the "is it slow right now" number.
	WindowQuantileSeconds float64 `json:"window_quantile_seconds"`
	BurnShort             float64 `json:"burn_short"`
	BurnLong              float64 `json:"burn_long"`
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

// Last returns the newest sampled value of the named series, with
// ok=false when the component is nil, the series is unknown, or it has
// no samples yet. This is the accessor signal extractors (the joint
// balancer) use: policy reads the freshest point, not the window stats.
func (cv *ComponentView) Last(name string) (v float64, ok bool) {
	if cv == nil {
		return 0, false
	}
	for i := range cv.Series {
		if cv.Series[i].Name == name && cv.Series[i].Summary.N > 0 {
			return cv.Series[i].Summary.Last, true
		}
	}
	return 0, false
}

// Snapshot assembles a view named name from the current ring and SLO
// state. Safe to call from any goroutine (e.g. a live /statusz handler)
// while the simulation samples; returns an empty view for a nil
// observatory.
func (o *Observatory) Snapshot(name string) *ClusterView {
	v := &ClusterView{Name: name}
	if o == nil {
		return v
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	v.Samples = o.samples
	v.Captures = o.captures
	for _, c := range o.sortedComponents() {
		cv := ComponentView{Name: c.name}
		for _, s := range c.series {
			pts := s.ring.Points()
			if p, ok := s.ring.Last(); ok && p.T > v.At {
				v.At = p.T
			}
			cv.Series = append(cv.Series, SeriesView{
				Name:    s.name,
				Summary: Summarize(pts),
				Points:  Downsample(pts, timelinePoints),
			})
		}
		v.Components = append(v.Components, cv)
	}
	if o.tracker != nil {
		for _, name := range o.tracker.TenantNames() {
			h := o.tracker.Tenant(name)
			v.Tenants = append(v.Tenants, TenantView{
				Tenant: name,
				Flows:  h.Count(),
				P50:    h.Quantile(0.5),
				P99:    h.Quantile(0.99),
			})
		}
	}
	for _, s := range o.slos {
		sv := SLOView{
			Name:                      s.def.Name,
			Tenant:                    s.def.Tenant,
			Quantile:                  s.def.Quantile,
			TargetSeconds:             s.def.Target.Seconds(),
			Verdict:                   s.verdict,
			VerdictPath:               VerdictPath(s.transitions),
			Transitions:               append([]Transition(nil), s.transitions...),
			PeakBurnShort:             s.peakShort,
			PeakBurnLong:              s.peakLong,
			PeakWindowQuantileSeconds: s.peakWindowQ,
			Samples:                   s.samples,
		}
		if p, ok := s.burnShort.Last(); ok {
			sv.BurnShort = p.V
		}
		if p, ok := s.burnLong.Last(); ok {
			sv.BurnLong = p.V
		}
		if p, ok := s.windowQ.Last(); ok {
			sv.WindowQuantileSeconds = p.V
		}
		if s.burnLong != nil {
			sv.BurnTimeline = Downsample(s.burnLong.Points(), timelinePoints)
		}
		v.SLOs = append(v.SLOs, sv)
	}
	return v
}

// SLO returns the named SLO report, or nil when absent.
func (v *ClusterView) SLO(name string) *SLOView {
	for i := range v.SLOs {
		if v.SLOs[i].Name == name {
			return &v.SLOs[i]
		}
	}
	return nil
}

// WriteText renders the view as the fixed-width health digest: SLO
// verdict paths and peaks first, then one sparkline row per component
// series. Deterministic for a deterministic run.
func (v *ClusterView) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "health digest %s: %d samples to t=%v\n",
		v.Name, v.Samples, v.At); err != nil {
		return err
	}
	for _, s := range v.SLOs {
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
	if v.Captures > 0 {
		if _, err := fmt.Fprintf(w, "  breach profile captures: %d\n", v.Captures); err != nil {
			return err
		}
	}
	for _, c := range v.Components {
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
