package obs

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"strings"
)

// Handler returns an http.Handler serving a live /statusz view. src is
// called per request and returns the current ClusterView (nil renders an
// empty page, so wiring the handler before the first rig exists is
// safe). JSON is served for ?format=json or an Accept header preferring
// application/json; otherwise a self-refreshing HTML page.
//
// The handler holds no observatory reference itself: sources decide what
// a "current" view is (e.g. scotchsim serves the newest armed rig's
// snapshot; ofcontrollerd builds a view from its live counters).
func Handler(src func() *ClusterView) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var v *ClusterView
		if src != nil {
			v = src()
		}
		if v == nil {
			v = &ClusterView{}
		}
		if wantJSON(r) {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(v)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		writeHTML(w, v)
	})
}

func wantJSON(r *http.Request) bool {
	if r.URL.Query().Get("format") == "json" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "application/json")
}

func writeHTML(w http.ResponseWriter, v *ClusterView) {
	fmt.Fprint(w, `<!DOCTYPE html><html><head><meta http-equiv="refresh" content="1">`+
		`<title>scotch statusz</title><style>`+
		`body{font-family:monospace;margin:1.5em}table{border-collapse:collapse;margin-bottom:1.5em}`+
		`td,th{border:1px solid #bbb;padding:2px 8px;text-align:right}`+
		`th{background:#eee}td.l,th.l{text-align:left}`+
		`.healthy{color:#0a0}.burning{color:#c00;font-weight:bold}`+
		`</style></head><body>`)
	fmt.Fprintf(w, "<h2>scotch statusz</h2><p>sim time %v &middot; <a href=\"?format=json\">json</a></p>", v.At)

	if len(v.SLOs) > 0 {
		fmt.Fprint(w, `<h3>SLOs</h3><table><tr><th class="l">slo</th><th class="l">tenant</th>`+
			`<th>objective</th><th>window quantile</th><th>burn short</th><th>burn long</th><th class="l">verdict</th></tr>`)
		for _, s := range v.SLOs {
			fmt.Fprintf(w,
				`<tr><td class="l">%s</td><td class="l">%s</td><td>p%g&lt;%gs</td><td>%.4fs</td><td>%.2f</td><td>%.2f</td><td class="l %s">%s</td></tr>`,
				html.EscapeString(s.Name), html.EscapeString(s.Tenant),
				s.Quantile*100, s.TargetSeconds, s.WindowQuantileSeconds,
				s.BurnShort, s.BurnLong, s.Verdict, s.Verdict)
		}
		fmt.Fprint(w, "</table>")
	}

	if len(v.Tenants) > 0 {
		fmt.Fprint(w, `<h3>Tenants</h3><table><tr><th class="l">tenant</th><th>flows</th><th>p50</th><th>p99</th></tr>`)
		for _, t := range v.Tenants {
			fmt.Fprintf(w, `<tr><td class="l">%s</td><td>%d</td><td>%.4fs</td><td>%.4fs</td></tr>`,
				html.EscapeString(t.Tenant), t.Flows, t.P50, t.P99)
		}
		fmt.Fprint(w, "</table>")
	}

	if len(v.Components) > 0 {
		fmt.Fprint(w, `<h3>Components</h3><table><tr><th class="l">component</th><th class="l">series</th>`+
			`<th>last</th><th>min</th><th>max</th><th>mean</th><th>n</th></tr>`)
		for _, c := range v.Components {
			for _, s := range c.Series {
				fmt.Fprintf(w,
					`<tr><td class="l">%s</td><td class="l">%s</td><td>%.4g</td><td>%.4g</td><td>%.4g</td><td>%.4g</td><td>%d</td></tr>`,
					html.EscapeString(c.Name), html.EscapeString(s.Name),
					s.Summary.Last, s.Summary.Min, s.Summary.Max, s.Summary.Mean, s.Summary.N)
			}
		}
		fmt.Fprint(w, "</table>")
	}
	fmt.Fprint(w, "</body></html>")
}
