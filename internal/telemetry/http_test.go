package telemetry

import (
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
)

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestServerMetricsEndpoint(t *testing.T) {
	reg := NewRegistry()
	var requests atomic.Uint64
	requests.Add(3)
	reg.CounterFunc("scotch_requests_total", requests.Load)
	reg.GaugeFunc("scotch_live_value", func() float64 { return 7 })

	srv, err := StartServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body, hdr := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE scotch_requests_total counter",
		"scotch_requests_total 3",
		"scotch_live_value 7",
	} {
		if !strings.Contains(body, want+"\n") {
			t.Fatalf("body missing %q:\n%s", want, body)
		}
	}

	// Series are evaluated at scrape time, so they move between scrapes.
	requests.Add(2)
	_, body2, _ := get(t, base+"/metrics")
	if !strings.Contains(body2, "scotch_requests_total 5\n") {
		t.Fatalf("second scrape missing updated counter:\n%s", body2)
	}
}

func TestServerPprofAndRoot(t *testing.T) {
	srv, err := StartServer("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	if code, body, _ := get(t, base+"/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: code=%d", code)
	}
	if code, body, _ := get(t, base+"/"); code != http.StatusOK || !strings.Contains(body, "telemetry") {
		t.Fatalf("root: code=%d body=%q", code, body)
	}
	if code, _, _ := get(t, base+"/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path code = %d", code)
	}
}

// TestServerMetricsOnlyWithRegistry: a server started without a registry
// has no /metrics, and its index does not advertise one.
func TestServerMetricsOnlyWithRegistry(t *testing.T) {
	for _, tc := range []struct {
		reg  *Registry
		code int
	}{{nil, http.StatusNotFound}, {NewRegistry(), http.StatusOK}} {
		srv, err := StartServer("127.0.0.1:0", tc.reg)
		if err != nil {
			t.Fatal(err)
		}
		base := "http://" + srv.Addr()
		code, _, _ := get(t, base+"/metrics")
		_, index, _ := get(t, base+"/")
		srv.Close()
		if code != tc.code {
			t.Errorf("registry %v: /metrics status %d, want %d", tc.reg != nil, code, tc.code)
		}
		if listed := strings.Contains(index, "/metrics"); listed != (tc.reg != nil) {
			t.Errorf("registry %v: index %q lists /metrics = %v", tc.reg != nil, index, listed)
		}
	}
}

func TestServerCloseNil(t *testing.T) {
	var s *Server
	if s.Addr() != "" {
		t.Fatal("nil server addr")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
