package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"testing"
	"time"

	"quepa/internal/augment"
	"quepa/internal/optimizer"
)

// decisionServer is a fresh server with the result cache off, so every
// search runs a strategy and is logged.
func decisionServer(t *testing.T) *Server {
	t.Helper()
	s := mustNew(t, Config{Workload: smallWorkload(t)})
	s.rcache.Resize(0)
	return s
}

// runLogs reads the optimizer's run log back through its JSON-lines form.
func runLogs(t *testing.T, opt *optimizer.Adaptive) []map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := opt.SaveLogs(&buf); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

// explained runs one /search?explain=1 and returns the optimizer's chosen
// config and the strategy the first augmentation ran.
func explained(t *testing.T, s *Server, query string, level int) (chosen map[string]any, ran string) {
	t.Helper()
	code, body := do(t, s, "GET",
		"/search?explain=1&db=transactions&level="+strconv.Itoa(level)+"&q="+url.QueryEscape(query))
	if code != http.StatusOK {
		t.Errorf("level %d search = %d %v", level, code, body)
		return nil, ""
	}
	p, _ := body["explain"].(map[string]any)
	opt, _ := p["optimizer"].(map[string]any)
	chosen, _ = opt["chosen"].(map[string]any)
	augs, _ := p["augmentations"].([]any)
	if len(augs) == 0 {
		t.Errorf("level %d: no augmentation in the profile", level)
		return chosen, ""
	}
	ran, _ = augs[0].(map[string]any)["strategy"].(string)
	return chosen, ran
}

// TestUntrainedDecisionRunsBaseConfig: before the optimizer has trained, a
// search reports and runs the server's base configuration, OUTER-BATCH with
// 64-key batches and 8 threads, and the run log records exactly that.
func TestUntrainedDecisionRunsBaseConfig(t *testing.T) {
	s := decisionServer(t)
	chosen, ran := explained(t, s, "SELECT * FROM inventory WHERE seq < 3", 1)
	if chosen["strategy"] != "OUTER-BATCH" || chosen["batch_size"] != float64(64) ||
		chosen["threads_size"] != float64(8) || chosen["cache_size"] != float64(4096) {
		t.Errorf("untrained decision reports %v, want OUTER-BATCH/64/8/4096", chosen)
	}
	if ran != "OUTER-BATCH" {
		t.Errorf("untrained search ran %s, want OUTER-BATCH", ran)
	}
	logs := runLogs(t, s.opt)
	if len(logs) != 1 || logs[0]["strategy"] != "OUTER-BATCH" ||
		logs[0]["batchSize"] != float64(64) || logs[0]["threadsSize"] != float64(8) {
		t.Errorf("run log = %v, want one OUTER-BATCH/64/8 run", logs)
	}
}

// TestEachRequestRunsItsDecision trains the optimizer so that level 0 picks
// SEQUENTIAL and level 1 picks BATCH, then serves both levels concurrently.
// Every response must have run the strategy its own decision chose, and
// every run-log entry must carry the strategy of its own level: a decision
// applied to shared state would let one request run, or be logged under,
// another request's choice. Meant for -race.
func TestEachRequestRunsItsDecision(t *testing.T) {
	s := decisionServer(t)
	want := map[int]augment.Strategy{0: augment.Sequential, 1: augment.Batch}
	for level, strategy := range want {
		for size := 1; size <= 8; size++ {
			s.opt.Log(optimizer.RunLog{
				Features: optimizer.QueryFeatures{ResultSize: size, AugmentedSize: 3 * size, Level: level, NumStores: 4},
				Config:   augment.Config{Strategy: strategy, BatchSize: 32, ThreadsSize: 4, CacheSize: 4096},
				Duration: time.Millisecond,
			})
		}
	}
	if err := s.opt.Train(); err != nil {
		t.Fatal(err)
	}

	queries := []string{
		"SELECT * FROM inventory WHERE seq < 2",
		"SELECT * FROM inventory WHERE seq < 3",
		"SELECT * FROM inventory WHERE seq < 5",
	}
	const workers, each = 4, 12 // 96 logged runs: below RetrainEvery
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		for level := range want {
			wg.Add(1)
			go func(w, level int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					chosen, ran := explained(t, s, queries[(w+i)%len(queries)], level)
					if chosen["strategy"] != want[level].String() || ran != want[level].String() {
						t.Errorf("level %d: chose %v, ran %s, want %s for both", level, chosen["strategy"], ran, want[level])
					}
				}
			}(w, level)
		}
	}
	wg.Wait()

	for _, l := range runLogs(t, s.opt) {
		level := int(l["level"].(float64))
		if l["strategy"] != want[level].String() {
			t.Errorf("run log entry %v: level %d logged under %s", l, level, l["strategy"])
		}
	}
}
