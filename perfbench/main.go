// Command perfbench is the repository's benchmark. It serves a seeded graph
// of about 10^4 triples from an in-process triqd (the serve, store and mat
// packages wired as cmd/triqd wires them with its default flags and
// -wal-sync always), drives one workload through it as a closed loop of two
// clients on two keep-alive connections, checks every answer, and prints
// the end-to-end metrics. With -trace 1 it then replays the same op stream
// in-process with spans around each call into a layer and prints the
// per-layer metrics instead. See README.md for the workloads and metrics.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload read-chase --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is non-zero when
// any correctness check failed.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro"
	"repro/internal/rdf"
	"repro/internal/store"
)

// workloads lists the benchmark's workloads and whether the server
// materializes.
var workloads = map[string]bool{
	"read-chase":   false,
	"write-commit": false,
	"mixed-mat":    true,
}

// setupRepeats is how many times an untraced run sets the system up; it
// reports the median and serves from the last one.
const setupRepeats = 5

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	spans    string
	workDir  string
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var seconds float64
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "read-chase, write-commit or mixed-mat")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for the graph and the op stream")
	fs.Float64Var(&seconds, "seconds", 30, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1 replays the op stream traced and prints per-layer metrics")
	fs.StringVar(&cfg.spans, "spans", "", "JSONL span file of the traced run (default .bench_build/spans-<workload>-<seed>.jsonl)")
	fs.StringVar(&cfg.workDir, "work", ".bench_build", "directory for store files and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	cfg.window = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	if cfg.spans == "" {
		cfg.spans = filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	}
	res, err := bench(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// report collects the printed lines and the metrics of one run.
type report struct {
	out     *os.File
	metrics map[string]metric
	fails   []string
}

func (r *report) printf(format string, a ...any) {
	if r.out != nil {
		fmt.Fprintf(r.out, format+"\n", a...)
	}
}

func (r *report) put(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) fail(format string, a ...any) {
	r.fails = append(r.fails, fmt.Sprintf(format, a...))
}

// bench runs one workload and returns its result line.
func bench(cfg config, out *os.File) (*result, error) {
	sc := newScenario(cfg.workload, cfg.seed)
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.workDir, "run-"+cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	rep := &report{out: out, metrics: map[string]metric{}}
	rep.printf("perfbench: workload %s, seed %d, window %s, GOMAXPROCS %d, nproc %d, %d clients closed loop",
		cfg.workload, cfg.seed, cfg.window, runtime.GOMAXPROCS(0), runtime.NumCPU(), clients)
	rep.printf("server: -concurrency %d -queue %d -parallelism %d -retries %d -wal-sync always -materialize=%v",
		flagConcurrency, flagQueue, flagParallelism, flagRetries, workloads[cfg.workload])

	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
	}
	var sys *system
	var g0 *rdf.Graph
	var setups []float64
	for k := 0; k < repeats; k++ {
		if sys != nil {
			if err := sys.stop(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		g0 = sc.graph()
		sys, err = startSystem(g0, filepath.Join(tmp, fmt.Sprintf("http%d", k)), workloads[cfg.workload], cfg.seed)
		if err != nil {
			return nil, err
		}
		if sys.m != nil {
			if err := warm(sc, sys.base); err != nil {
				sys.stop()
				return nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.printf("graph: workload.University(%d,%d,%d) + workload.TransportGraph(%d,%d,%d), %d triples",
		departments, profsPerDep, studsPerProf, lines, lineDepth, lineCities, g0.Len())
	baseEpoch := sys.st.Current().Seq

	// A traced run spends half its time in the untraced window and about
	// as long again replaying it traced.
	window := cfg.window
	if cfg.trace {
		window /= 2
	}
	cpu0, steal0 := cpuSteal()
	rt0 := readRuntime()
	samples, elapsed := closedLoop(sc, sys.base, window)
	rt1 := readRuntime()
	cpu1, steal1 := cpuSteal()
	rss := peakRSSMB()
	queueWait := 0.0
	if h, ok := sys.o.Registry().HistSnapshot("serve.queue_wait_us"); ok {
		queueWait = h.Quantile(0.95) / 1000
	}

	recovery, err := checkHTTP(sc, sys, g0, baseEpoch, samples, rep)
	if err != nil {
		return nil, err
	}
	attempted, failed := 0, 0
	byKind := map[string][]float64{}
	byGroup := map[string][]float64{}
	byClass := map[string][]float64{}
	for _, cs := range samples {
		for _, s := range cs {
			attempted++
			if s.bad != "" {
				failed++
			}
			ms := float64(s.lat) / 1e6
			byKind[s.x.kind] = append(byKind[s.x.kind], ms)
			byGroup[group(s.x)] = append(byGroup[group(s.x)], ms)
			byClass[class(s.x)] = append(byClass[class(s.x)], ms)
		}
	}
	if attempted == 0 {
		return nil, errors.New("no op completed")
	}
	rep.printf("timed window: %d ops attempted, %d failed, fail_ratio %.4f, %.2f s, %.1f%% of the machine's CPU time stolen by its host",
		attempted, failed, ratio(float64(failed), float64(attempted)), elapsed.Seconds(), 100*ratio(steal1-steal0, cpu1-cpu0))
	for _, g := range []string{"query", "sparql", "write", "transport", "university"} {
		v := byGroup[g]
		if g == "transport" || g == "university" {
			v = byClass[g]
		}
		if len(v) > 0 {
			rep.printf("%s_p50_ms %.3f ms (n=%d)", g, quantile(v, 0.5), len(v))
			rep.printf("%s_p95_ms %.3f ms (n=%d)", g, quantile(v, 0.95), len(v))
		}
	}

	res := &result{Attempted: attempted, Failed: failed}
	if !cfg.trace {
		rep.put("setup_s", median(setups), "s")
		rep.put("ops_per_s", float64(attempted-failed)/elapsed.Seconds(), "1/s")
		rep.put("p50_ms", weighted(byClass, 0.5), "ms")
		rep.put("p95_ms", weighted(byClass, 0.95), "ms")
		rep.put("alloc_mb_per_op", (rt1.allocBytes-rt0.allocBytes)/1e6/float64(attempted), "MB")
		rep.put("peak_rss_mb", rss, "MB")
		names := make([]string, 0, len(rep.metrics))
		for n := range rep.metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := rep.metrics[n]
			rep.printf("%s %.4f %s (n=%d ops)", n, m.Value, m.Unit, attempted)
		}
	} else {
		hv := httpView{byKind: byKind, queueWaitP95: queueWait, recoveryS: recovery}
		tres, err := traced(cfg, sc, samples, hv, filepath.Join(tmp, "traced"), rep)
		if err != nil {
			return nil, err
		}
		res.Attempted += tres.attempted
		res.Failed += tres.failed
	}
	for _, f := range rep.fails {
		rep.printf("CHECK FAILED: %s", f)
	}
	res.Correct = len(rep.fails) == 0 && res.Failed == 0
	res.Metrics = rep.metrics
	return res, nil
}

// group is the op type latencies are printed under: query, sparql or
// write (insert and delete).
func group(x *op) string {
	if x.batch != nil {
		return "write"
	}
	return x.kind
}

// class splits the groups further into ops of one cost: the two /query
// programs apart.
func class(x *op) string {
	if x.kind == kindQuery && x.prog == progUniversity {
		return "university"
	}
	if x.kind == kindQuery {
		return "transport"
	}
	return group(x)
}

// weighted is the q-quantile of each class's latencies, averaged with the
// class's share of the ops as weight. Unlike the quantile of all latencies
// pooled, it does not jump between the modes of two classes of different
// cost when one holds exactly half of the ops.
func weighted(byClass map[string][]float64, q float64) float64 {
	sum, n := 0.0, 0
	for _, v := range byClass {
		sum += float64(len(v)) * quantile(v, q)
		n += len(v)
	}
	return sum / float64(n)
}

// checkHTTP verifies every sample of the timed window and the state the
// window left, stops the system, and for write-commit reopens the store from
// its WAL directory. It marks failed samples and returns the recovery time
// in seconds (0 when the workload does not reopen).
func checkHTTP(sc *scenario, sys *system, g0 *rdf.Graph, base uint64, samples [][]sample, rep *report) (float64, error) {
	orc := newOracle(sc, g0)
	var ws []write
	for _, cs := range samples {
		for i := range cs {
			s := &cs[i]
			if s.bad == "" && s.x.batch != nil {
				if s.applied != len(s.x.batch.triples) {
					s.bad = fmt.Sprintf("%s applied %d of %d triples", s.x.kind, s.applied, len(s.x.batch.triples))
				} else {
					ws = append(ws, write{epoch: s.epoch, x: s.x})
				}
			}
		}
	}
	ep := newEpochs(base, ws)
	if err := ep.contiguous(); err != nil {
		rep.fail("epochs: %v", err)
	}
	checkReads(orc, ep, samples)
	for _, cs := range samples {
		for _, s := range cs {
			if s.bad != "" {
				rep.fail("%s: %s", s.x.kind, s.bad)
				break
			}
		}
	}

	final := sys.st.Current()
	if sc.workload != "read-chase" && !final.Graph.Equal(g0) {
		rep.fail("final graph (%d triples) differs from the initial graph (%d)", final.Graph.Len(), g0.Len())
	}
	if sys.m != nil {
		if err := checkFinalMat(sc, sys, final, orc); err != nil {
			rep.fail("end of run: %v", err)
		}
	}
	if err := sys.stop(); err != nil {
		return 0, err
	}
	if sc.workload != "write-commit" {
		return 0, nil
	}
	t0 := time.Now()
	st, _, err := store.Open(storeConfig(sys.dir, nil, nil))
	recovery := time.Since(t0).Seconds()
	if err != nil {
		return 0, fmt.Errorf("reopen store: %w", err)
	}
	got := st.Current()
	if got.Seq != final.Seq || !got.Graph.Equal(final.Graph) {
		rep.fail("recovered epoch %d (%d triples), last acknowledged %d (%d triples)",
			got.Seq, got.Graph.Len(), final.Seq, final.Graph.Len())
	}
	rep.printf("durability: store reopened from its WAL in %.4f s at epoch %d", recovery, got.Seq)
	return recovery, st.Close()
}

// checkReads compares every read with the oracle's answer for the epoch it
// read.
func checkReads(orc *oracle, ep *epochs, samples [][]sample) {
	for _, cs := range samples {
		for i := range cs {
			s := &cs[i]
			if s.bad != "" || s.x.batch != nil {
				continue
			}
			live, ok := ep.at(s.epoch)
			if !ok {
				s.bad = fmt.Sprintf("read at epoch %d, which no write committed", s.epoch)
				continue
			}
			want, err := orc.expect(s.x, live)
			if err != nil {
				s.bad = err.Error()
			} else if s.ans != want {
				s.bad = fmt.Sprintf("%d rows, want %d (or same count, different rows)", s.ans.rows, want.rows)
			}
		}
	}
}

// checkFinalMat reads both mixed-mat programs through the server at the
// final epoch and compares them with a from-scratch evaluation that does
// not use the materializer, and with the oracle.
func checkFinalMat(sc *scenario, sys *system, final store.Epoch, orc *oracle) error {
	cl := newClient(sys.base)
	defer cl.close()
	for _, p := range []int{progTransport, progUniversity} {
		x := sc.withBody(&op{kind: kindQuery, prog: p})
		s := cl.do(x)
		if s.bad != "" {
			return errors.New(s.bad)
		}
		q, err := repro.ParseQuery(sc.text(x), "query")
		if err != nil {
			return err
		}
		r, err := repro.AskCtx(context.Background(), final.Graph, q, repro.TriQLite10, repro.Options{})
		if err != nil {
			return err
		}
		want, _ := orc.expect(x, nil)
		if got := answerOf(r.Rows()); got != s.ans || got != want {
			return fmt.Errorf("program %d: served %d rows, from scratch %d, oracle %d", p, s.ans.rows, got.rows, want.rows)
		}
	}
	return nil
}
