package workload

import (
	"runtime"
	"testing"
	"time"
)

// BenchmarkServedGC is what the polystore a server holds costs the garbage
// collector: it builds one scale-16 Build (the ledger's size: every store,
// the A' index and their metadata), holds it live and reports the live heap
// it adds (heap-MB) and the time one forced collection spends on it (gc-ms:
// a runtime.GC() with the build live minus one after it is dropped), at
// GOMAXPROCS(1) so the figure is CPU time, not wall time spread over cores.
func BenchmarkServedGC(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	built, err := Build(DefaultSpec().Scale(16), Colocated())
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runtime.GC()
	}
	b.StopTimer()
	live := b.Elapsed()
	runtime.KeepAlive(built)
	built = nil
	runtime.GC()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		runtime.GC()
	}
	dropped := time.Since(start)
	b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/1e6, "heap-MB")
	b.ReportMetric(float64(live-dropped)/1e6/float64(b.N), "gc-ms")
}
