package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"testing"
	"time"
)

// opStream renders the first n ops of every client as bytes.
func opStream(workload string, seed int64, n int) []byte {
	sc := newScenario(workload, seed)
	var b bytes.Buffer
	for c := 0; c < clients; c++ {
		st := sc.stream(c)
		for i := 0; i < n; i++ {
			x := st.next(false)
			fmt.Fprintf(&b, "%d %s %s\n", c, x.kind, x.body)
		}
	}
	return b.Bytes()
}

func TestOpStreamIsSeeded(t *testing.T) {
	for w := range workloads {
		a, b := opStream(w, 7, 200), opStream(w, 7, 200)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different op streams", w)
		}
		if bytes.Equal(a, opStream(w, 8, 200)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", w)
		}
	}
}

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload for a short window, untraced and traced,
// and checks that the run is correct and emits exactly the metrics
// BENCHMARK.json declares, each with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	src, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(src, &d); err != nil {
		t.Fatal(err)
	}
	for w := range workloads {
		for _, trace := range []bool{false, true} {
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			dir := t.TempDir()
			cfg := config{workload: w, seed: 3, window: 2 * time.Second, trace: trace, workDir: dir, spans: dir + "/spans.jsonl"}
			res, err := bench(cfg, nil)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !nameRE.MatchString(m.Name):
					t.Errorf("metric name %q has characters outside letters, digits, _, . and -", m.Name)
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, trace, m.Name)
				case got.Unit != m.Unit || got.Unit == "":
					t.Errorf("%s trace=%v: metric %s has unit %q, declared %q", w, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if trace {
				checkSpans(t, cfg.spans)
			}
		}
	}
}

// checkSpans checks the span file: every line is a span with an op id, and
// every parent link names a span of the same op in the file.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []spanLine
	ids := map[string]int64{}
	for _, line := range bytes.Split(bytes.TrimSpace(src), []byte("\n")) {
		var s spanLine
		if err := json.Unmarshal(line, &s); err != nil || s.ID == "" || s.Name == "" {
			t.Fatalf("bad span line %q: %v", line, err)
		}
		spans = append(spans, s)
		ids[s.ID] = s.Op
	}
	roots := 0
	for _, s := range spans {
		if s.Parent == "" {
			roots++
			continue
		}
		if op, ok := ids[s.Parent]; !ok || op != s.Op {
			t.Errorf("span %s (%s) of op %d has parent %s outside the op", s.ID, s.Name, s.Op, s.Parent)
		}
	}
	if roots == 0 || roots == len(spans) {
		t.Errorf("%d spans, %d roots: want one root per op with children", len(spans), roots)
	}
}
