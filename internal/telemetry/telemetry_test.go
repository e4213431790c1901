package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(3)
	r.Counter("x").Inc()
	r.Gauge("g").Add(7)
	r.Gauge("g").Add(1)
	r.Histogram("h").Observe(10)
	r.Histogram("h").ObserveDuration(time.Second)
	if r.Counter("x").Value() != 0 || r.Gauge("g").Value() != 0 || r.Histogram("h").Count() != 0 {
		t.Fatal("nil registry must absorb all updates")
	}
	if r.Wall() != 0 {
		t.Fatal("nil registry wall must be zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || snap.WallNS != 0 {
		t.Fatalf("nil registry snapshot must be empty, got %+v", snap)
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := New()
	r.Counter("runs").Add(5)
	r.Counter("runs").Inc()
	if got := r.Counter("runs").Value(); got != 6 {
		t.Fatalf("counter = %d, want 6", got)
	}
	r.Gauge("budget").Add(8)
	r.Gauge("budget").Add(-3)
	if got := r.Gauge("budget").Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	h := r.Histogram("lat")
	for _, v := range []int64{1, 2, 3, 100, -5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("hist count = %d, want 5", h.Count())
	}
	if h.Sum() != 106 { // -5 clamps to 0
		t.Fatalf("hist sum = %d, want 106", h.Sum())
	}
	if q := h.Quantile(1); q < 100 {
		t.Fatalf("max quantile bound %d should cover 100", q)
	}
	if q := h.Quantile(0); q > 1 {
		t.Fatalf("min quantile bound %d too high", q)
	}
}

func TestRegistryMetricsAreStable(t *testing.T) {
	r := New()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same name must return same counter")
	}
	if r.Gauge("a") == nil || r.Histogram("a") == nil {
		t.Fatal("gauge/histogram share the namespace without clashing")
	}
}

func TestConcurrentCounters(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("n")
			h := r.Histogram("h")
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n").Value(); got != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("concurrent hist count = %d, want 8000", got)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("campaign.runs_injected").Add(42)
	r.Gauge("workers").Add(4)
	r.Histogram("cell_ns").Observe(1500)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot JSON must parse: %v\n%s", err, buf.String())
	}
	if back.Counters["campaign.runs_injected"] != 42 {
		t.Fatalf("counter lost in round trip: %+v", back)
	}
	if back.Gauges["workers"] != 4 {
		t.Fatalf("gauge lost in round trip: %+v", back)
	}
	if back.Hists["cell_ns"].Count != 1 {
		t.Fatalf("histogram lost in round trip: %+v", back)
	}
}

func TestBucketOf(t *testing.T) {
	cases := map[int64]int{0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 1023: 10, 1024: 11}
	for v, want := range cases {
		if got := bucketOf(v); got != want {
			t.Errorf("bucketOf(%d) = %d, want %d", v, got, want)
		}
	}
	if got := bucketOf(1 << 62); got != histBuckets-1 {
		t.Errorf("huge value bucket = %d, want %d", got, histBuckets-1)
	}
}

func TestDefaultRegistry(t *testing.T) {
	old := Default()
	defer SetDefault(old)
	r := New()
	SetDefault(r)
	if Default() != r {
		t.Fatal("SetDefault/Default mismatch")
	}
	SetDefault(nil)
	if Default() != nil {
		t.Fatal("SetDefault(nil) must disable")
	}
}

func TestFormatTreeEmpty(t *testing.T) {
	if !strings.Contains(New().Snapshot().FormatTree(), "no spans") {
		t.Error("empty tree should say so")
	}
}

// TestRegistryServesMetrics pins the one /metrics handler: a registry
// answers its Snapshot as JSON, a nil one 404 {"error":"telemetry
// disabled"}.
func TestRegistryServesMetrics(t *testing.T) {
	r := New()
	r.Counter("serve.requests").Add(2)
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d %q (%v)", rec.Code, rec.Body, err)
	}
	if snap.Counters["serve.requests"] != 2 {
		t.Errorf("counters = %v, want serve.requests 2", snap.Counters)
	}

	var off *Registry
	rec = httptest.NewRecorder()
	off.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusNotFound || strings.TrimSpace(rec.Body.String()) != `{"error":"telemetry disabled"}` {
		t.Errorf("nil registry: %d %q, want 404 telemetry disabled", rec.Code, rec.Body)
	}
}
