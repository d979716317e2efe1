package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a test counter")
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestCounterSeriesIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("hits_total", "", L("store", "s1"), L("op", "get"))
	b := r.Counter("hits_total", "", L("op", "get"), L("store", "s1")) // same set, reordered
	other := r.Counter("hits_total", "", L("store", "s2"), L("op", "get"))
	if a != b {
		t.Error("label order created distinct series")
	}
	if a == other {
		t.Error("different label values shared a series")
	}
	a.Add(3)
	if got := r.Counter("hits_total", "", L("op", "get"), L("store", "s1")).Value(); got != 3 {
		t.Errorf("re-resolved counter = %d, want 3", got)
	}
	if got := other.Value(); got != 0 {
		t.Errorf("sibling series = %d, want 0", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "", nil)
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(time.Duration(w+1) * time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("count = %d, want %d", got, workers*perWorker)
	}
	wantSum := time.Duration(0)
	for w := 0; w < workers; w++ {
		wantSum += time.Duration(w+1) * time.Millisecond * perWorker
	}
	if got := h.Sum(); got != wantSum {
		t.Errorf("sum = %v, want %v", got, wantSum)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "requests served", L("code", "200"))
	c.Add(7)
	g := r.Gauge("sessions", "active sessions")
	g.Set(3)
	r.GaugeFunc("objects", "live objects", func() float64 { return 42 })
	r.CounterFunc("evictions_total", "evictions", func() uint64 { return 5 })
	h := r.Histogram("lat_seconds", "latency", []float64{0.001, 0.01, 0.1})
	h.Observe(500 * time.Microsecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(2 * time.Second) // +Inf bucket

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP requests_total requests served\n",
		"# TYPE requests_total counter\n",
		`requests_total{code="200"} 7` + "\n",
		"# TYPE sessions gauge\n",
		"sessions 3\n",
		"objects 42\n",
		"evictions_total 5\n",
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{le="0.001"} 1` + "\n",
		`lat_seconds_bucket{le="0.01"} 2` + "\n",
		`lat_seconds_bucket{le="0.1"} 2` + "\n",
		`lat_seconds_bucket{le="+Inf"} 3` + "\n",
		"lat_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", L("q", "a\"b\\c\nd")).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `esc_total{q="a\"b\\c\nd"} 1`) {
		t.Errorf("bad escaping: %s", sb.String())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Error("registering x_total as gauge did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestDisabledInstruments(t *testing.T) {
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	r := NewRegistry()
	c := r.Counter("off_total", "")
	c.Inc()
	if c.Value() != 0 {
		t.Error("disabled counter incremented")
	}
	h := r.Histogram("off_seconds", "", nil)
	h.Observe(time.Second)
	h.Since(Now()) // Now() is zero while disabled
	if h.Count() != 0 {
		t.Error("disabled histogram observed")
	}
	if !Now().IsZero() {
		t.Error("Now() should be zero while disabled")
	}
}
