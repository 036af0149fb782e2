package obs

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSnapshotRacesSample pins the documented concurrency contract:
// Snapshot may be called from any goroutine — a live
// /statusz handler — while the simulation thread samples. Run under
// -race this fails loudly if the observatory's mutex ever stops
// covering both sides.
func TestSnapshotRacesSample(t *testing.T) {
	eng, o := burnRig()

	var done atomic.Bool
	var total atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				v := o.Snapshot("race")
				if v == nil {
					t.Error("Snapshot returned nil")
					return
				}
				// Touch the plain-data payload: a view must never alias
				// live ring state, so reading it is always safe.
				for _, c := range v.Components {
					for _, s := range c.Series {
						_ = s.Summary.Last
						_ = len(s.Points)
					}
				}
				total.Add(1)
			}
		}()
	}

	// The simulation thread keeps sampling until the readers have
	// demonstrably overlapped with it: simulated time races ahead of
	// wall time, so a fixed horizon could finish before the readers
	// take a single snapshot.
	for i := 1; total.Load() < 500 && i <= 10000; i++ {
		eng.RunUntil(time.Duration(i) * time.Second)
	}
	o.Stop()
	done.Store(true)
	wg.Wait()

	if total.Load() == 0 {
		t.Fatal("no snapshots were taken while sampling ran")
	}
}
