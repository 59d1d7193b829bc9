package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/serve"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/translate"
	"repro/internal/triq"
)

// httpView is what the traced run needs from the untraced window before it.
type httpView struct {
	byKind       map[string][]float64 // latencies in ms per op kind
	queueWaitP95 float64              // ms, from the server's serve.queue_wait_us
	recoveryS    float64
}

// allocOps is how many ops of client 0's stream the single-client pass
// replays to measure allocations and WAL growth per call.
var allocOps = map[string]int{"read-chase": 16, "write-commit": 32, "mixed-mat": 120}

// spanLine is one span of the JSONL file.
type spanLine struct {
	Op      int64   `json:"op"`
	ID      string  `json:"id"`
	Parent  string  `json:"parent,omitempty"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// dropSpans are per-round and per-rule program spans; they are left out of
// the JSONL file to keep it small. Their parents stay in it.
var dropSpans = map[string]bool{"chase.round": true, "chase.rule": true, "chase.worker": true, "translate.op": true, "sparql.op": true}

// layer calls, by op kind, that must appear in the traced run.
var wantLayers = map[string][]string{
	kindQuery:  {"serve.decode", "datalog.ParseQuery", "triq.Validate", "triq.decode", "serve.encode"},
	kindSparql: {"serve.decode", "sparql.ParseQuery", "translate.TracedCtx", "translate.EvaluateFullCtx", "translate.load_db", "triq.eval", "chase.run", "translate.decode", "sparql.rows", "serve.encode"},
	kindInsert: {"serve.decode", "rdf.ParseNTriplesString", "store.Insert", "wal.sync", "serve.encode"},
	kindDelete: {"serve.decode", "rdf.ParseNTriplesString", "store.Delete", "wal.sync", "serve.encode"},
}

// workloadLayers are further layer calls each workload must show.
var workloadLayers = map[string][]string{
	"read-chase": {"owl.GraphToDB", "chase.FromFacts", "triq.EvalCtx", "chase.deepen", "chase.run"},
	"mixed-mat":  {"triq.ServeMaterialized", "mat.OnCommit"},
}

// tracedSys is the in-process system the traced run drives: the same store
// and materializer as the server's, without HTTP.
type tracedSys struct {
	o  *obs.Obs
	st *store.Store
	m  *mat.Materializer
	g0 *rdf.Graph

	mu    sync.Mutex
	maint map[uint64][2]time.Time // epoch → OnCommit start, end
}

func newTracedSys(sc *scenario, dir string) (*tracedSys, error) {
	t := &tracedSys{o: obs.New(), g0: sc.graph(), maint: map[uint64][2]time.Time{}}
	var onCommit func(store.CommitEvent)
	if workloads[sc.workload] {
		t.m = newMat(t.o)
		onCommit = func(ev store.CommitEvent) {
			t0 := time.Now()
			t.m.OnCommit(ev)
			t1 := time.Now()
			t.mu.Lock()
			t.maint[ev.Epoch] = [2]time.Time{t0, t1}
			t.mu.Unlock()
		}
	}
	st, _, err := store.Open(storeConfig(dir, t.o, onCommit))
	if err != nil {
		return nil, err
	}
	t.st = st
	if _, err := st.Bootstrap(t.g0); err != nil {
		st.Close()
		return nil, err
	}
	if t.m != nil {
		t.m.Reset(st.Current().Seq)
	}
	return t, nil
}

// recorder wraps each call into a layer: with a trace it opens a span named
// after the call, otherwise it counts the bytes the call allocates.
type recorder struct {
	alloc  *allocCounter
	allocs map[string]int64
}

func (r *recorder) layer(ctx context.Context, name string, f func(context.Context)) obs.SpanID {
	if r.alloc != nil {
		a0 := r.alloc.bytes()
		f(ctx)
		r.allocs[name] += r.alloc.bytes() - a0
		return obs.SpanID{}
	}
	cctx, sp := obs.StartSpan(ctx, nil, name)
	f(cctx)
	sp.End()
	return sp.TraceSpanID()
}

// outcome is what one in-process op produced.
type outcome struct {
	epoch     uint64
	ans       answer
	applied   int
	hit       bool // served from a warm materialization
	stats     *chase.Stats
	commitSp  obs.SpanID
	userBytes int
	bad       string
}

// exec runs one op through the layers the server would call for it.
func (t *tracedSys) exec(ctx context.Context, x *op, r *recorder) outcome {
	var out outcome
	var err error
	fail := func(e error) outcome {
		out.bad = e.Error()
		return out
	}
	opts := triq.Options{}
	opts.Chase.Parallelism = flagParallelism
	opts.Chase.Obs = t.o
	lang := triq.TriQLite10

	if x.batch != nil {
		var req serve.MutationRequest
		r.layer(ctx, "serve.decode", func(context.Context) { err = json.Unmarshal(x.body, &req) })
		if err != nil {
			return fail(err)
		}
		out.userBytes = len(req.Triples)
		var triples []rdf.Triple
		r.layer(ctx, "rdf.ParseNTriplesString", func(context.Context) {
			var g *rdf.Graph
			if g, err = rdf.ParseNTriplesString(req.Triples); err == nil {
				triples = g.SortedTriples()
			}
		})
		if err != nil {
			return fail(err)
		}
		var e store.Epoch
		if x.kind == kindInsert {
			out.commitSp = r.layer(ctx, "store.Insert", func(context.Context) { e, out.applied, err = t.st.Insert(triples) })
		} else {
			out.commitSp = r.layer(ctx, "store.Delete", func(context.Context) { e, out.applied, err = t.st.Delete(triples) })
		}
		if err != nil {
			return fail(err)
		}
		out.epoch = e.Seq
		r.layer(ctx, "serve.encode", func(context.Context) {
			_, err = json.Marshal(serve.MutationResponse{Epoch: e.Seq, Applied: out.applied, Batch: len(triples), Durable: t.st.AckDurable()})
		})
		if err != nil {
			return fail(err)
		}
		return out
	}

	var req serve.QueryRequest
	r.layer(ctx, "serve.decode", func(context.Context) { err = json.Unmarshal(x.body, &req) })
	if err != nil {
		return fail(err)
	}
	var rows []string
	var res *triq.Result
	if x.kind == kindSparql {
		var sq *sparql.Query
		r.layer(ctx, "sparql.ParseQuery", func(context.Context) { sq, err = sparql.ParseQuery(req.Query) })
		if err != nil {
			return fail(err)
		}
		var tr *translate.Translation
		r.layer(ctx, "translate.TracedCtx", func(c context.Context) { tr, err = translate.TracedCtx(c, sq.Pattern(), translate.Plain, t.o) })
		if err != nil {
			return fail(err)
		}
		ep := t.st.Current()
		out.epoch = ep.Seq
		var ms *sparql.MappingSet
		r.layer(ctx, "translate.EvaluateFullCtx", func(c context.Context) { ms, res, err = tr.EvaluateFullCtx(c, ep.Graph, opts) })
		if err != nil {
			return fail(err)
		}
		r.layer(ctx, "sparql.rows", func(context.Context) { rows = mappingRows(ms) })
	} else {
		var q datalog.Query
		r.layer(ctx, "datalog.ParseQuery", func(context.Context) { q, err = datalog.ParseQuery(req.Program, "query") })
		if err != nil {
			return fail(err)
		}
		r.layer(ctx, "triq.Validate", func(context.Context) { err = triq.Validate(q, lang) })
		if err != nil {
			return fail(err)
		}
		ep := t.st.Current()
		out.epoch = ep.Seq
		if t.m != nil {
			opts.Mat, opts.MatEpoch = t.m, ep.Seq
			r.layer(ctx, "triq.ServeMaterialized", func(context.Context) { res, out.hit = triq.ServeMaterialized(q, lang, opts) })
		}
		if !out.hit {
			var atoms []datalog.Atom
			var db *chase.Instance
			r.layer(ctx, "owl.GraphToDB", func(context.Context) { atoms = owl.GraphToDB(ep.Graph) })
			r.layer(ctx, "chase.FromFacts", func(context.Context) { db, err = chase.FromFacts(atoms) })
			if err != nil {
				return fail(err)
			}
			r.layer(ctx, "triq.EvalCtx", func(c context.Context) { res, err = triq.EvalCtx(c, db, q, lang, opts) })
			if err != nil {
				return fail(err)
			}
			if res.Path == triq.PathChase {
				out.stats = &res.Stats
			}
		}
		r.layer(ctx, "triq.decode", func(context.Context) { rows = decodeRows(res) })
	}
	if res.Incomplete || (res.Answers != nil && res.Answers.Inconsistent) {
		out.bad = "incomplete or inconsistent answer"
	}
	r.layer(ctx, "serve.encode", func(context.Context) {
		_, err = json.Marshal(serve.QueryResponse{Rows: rows, Exact: res.Exact, Epoch: out.epoch})
	})
	if err != nil {
		return fail(err)
	}
	out.ans = answerOf(rows)
	return out
}

// decodeRows renders answer tuples as RDF terms, the way /query does.
func decodeRows(res *triq.Result) []string {
	rows := make([]string, 0, len(res.Answers.Tuples))
	parts := []string{}
	for _, tup := range res.Answers.Tuples {
		parts = parts[:0]
		for _, term := range tup {
			parts = append(parts, translate.DecodeTerm(term.Name).String())
		}
		rows = append(rows, strings.Join(parts, " "))
	}
	return rows
}

// tracedOp is one op of the traced replay.
type tracedOp struct {
	x      *op
	out    outcome
	total  time.Duration
	layers map[string]time.Duration // summed span time per name
	direct time.Duration            // time covered by the root's children
	spans  []spanLine
}

// runTraced executes one op under a recording trace and collects its spans.
func (t *tracedSys) runTraced(id int64, x *op, ids *obs.IDSource, t0 time.Time) tracedOp {
	tr := obs.NewTrace(ids.TraceID(), ids, true)
	ctx, root := obs.StartSpan(obs.ContextWithTrace(context.Background(), tr), nil, "op."+x.kind)
	start := time.Now()
	out := t.exec(ctx, x, &recorder{})
	total := time.Since(start)
	root.End()
	tr.Finish()

	top := tr.Spans()
	// Spans the program records outside any context: maintenance (the
	// benchmark's OnCommit wrapper) and the WAL fsync (the store's epoch
	// timeline), both children of the commit span.
	if x.batch != nil && out.bad == "" {
		t.mu.Lock()
		m, ok := t.maint[out.epoch]
		t.mu.Unlock()
		if ok {
			top = append(top, obs.TraceSpan{ID: ids.SpanID(), Parent: out.commitSp, Name: "mat.OnCommit", Start: m[0], End: m[1]})
		}
		if stamps, ok := t.st.Timeline().Lookup(out.epoch); ok {
			st := stamps.Stages()
			if a, s := st["append"], st["sync"]; a != 0 && s >= a {
				top = append(top, obs.TraceSpan{ID: ids.SpanID(), Parent: out.commitSp, Name: "wal.sync", Start: time.Unix(0, a), End: time.Unix(0, s)})
			}
		}
	}
	o := tracedOp{x: x, out: out, total: total, layers: map[string]time.Duration{}}
	rootID := root.TraceSpanID()
	for _, s := range top {
		d := s.End.Sub(s.Start)
		o.layers[s.Name] += d
		if s.Parent == rootID && s.ID != rootID {
			o.direct += d
		}
		if dropSpans[s.Name] {
			continue
		}
		line := spanLine{Op: id, ID: s.ID.String(), Name: s.Name,
			StartUS: float64(s.Start.Sub(t0).Nanoseconds()) / 1e3, DurUS: float64(d.Nanoseconds()) / 1e3}
		if !s.Parent.IsZero() {
			line.Parent = s.Parent.String()
		}
		o.spans = append(o.spans, line)
	}
	return o
}

type tracedResult struct {
	attempted, failed int
}

// traced replays the untraced window's op streams in-process, client by
// client and in the same order, with spans around each call into a layer;
// then replays the start of client 0's stream alone to count allocations
// per call. It puts every per-layer metric and writes the span file.
func traced(cfg config, sc *scenario, samples [][]sample, hv httpView, dir string, rep *report) (*tracedResult, error) {
	t, err := newTracedSys(sc, dir)
	if err != nil {
		return nil, err
	}
	defer t.st.Close()
	if t.m != nil {
		for _, p := range []int{progTransport, progUniversity} {
			x := sc.withBody(&op{kind: kindQuery, prog: p})
			if o := t.exec(context.Background(), x, &recorder{}); o.bad != "" {
				return nil, fmt.Errorf("warm-up read: %s", o.bad)
			}
		}
	}
	base := t.st.Current().Seq
	before := map[string]int64{}
	for _, n := range []string{"mat.triggers", "mat.derived", "mat.overdeleted", "mat.rederived"} {
		before[n] = t.o.Registry().Counter(n)
	}

	// Phase A: the two clients, concurrently, traced.
	t0 := time.Now()
	rt0 := readRuntime()
	ops := make([][]tracedOp, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ids := obs.NewIDSource(cfg.seed*clients + int64(c) + 1)
			for i, s := range samples[c] {
				ops[c] = append(ops[c], t.runTraced(int64(c)<<32|int64(i), s.x, ids, t0))
			}
		}(c)
	}
	wg.Wait()
	rt1 := readRuntime()
	res := &tracedResult{}

	// Check the traced answers: the same oracle as the untraced window, and
	// on read-chase, whose graph never changes, the very answer each HTTP
	// op got.
	orc := newOracle(sc, t.g0)
	var ws []write
	for c := range ops {
		for i := range ops[c] {
			o := &ops[c][i]
			if o.out.bad == "" && o.x.batch != nil {
				if o.out.applied != len(o.x.batch.triples) {
					o.out.bad = fmt.Sprintf("applied %d of %d", o.out.applied, len(o.x.batch.triples))
				} else {
					ws = append(ws, write{epoch: o.out.epoch, x: o.x})
				}
			}
		}
	}
	ep := newEpochs(base, ws)
	if err := ep.contiguous(); err != nil {
		rep.fail("traced epochs: %v", err)
	}
	seen := map[string]bool{}
	for c := range ops {
		for i := range ops[c] {
			o := &ops[c][i]
			res.attempted++
			for n := range o.layers {
				seen[n] = true
			}
			if o.out.bad == "" && o.x.batch == nil {
				live, ok := ep.at(o.out.epoch)
				want, err := orc.expect(o.x, live)
				switch {
				case !ok:
					o.out.bad = fmt.Sprintf("read at uncommitted epoch %d", o.out.epoch)
				case err != nil:
					o.out.bad = err.Error()
				case o.out.ans != want:
					o.out.bad = fmt.Sprintf("traced answer has %d rows, oracle %d", o.out.ans.rows, want.rows)
				case sc.workload == "read-chase" && o.out.ans != samples[c][i].ans:
					o.out.bad = "traced answer differs from the HTTP answer"
				}
			}
			if o.out.bad != "" {
				res.failed++
				if res.failed == 1 {
					rep.fail("traced %s: %s", o.x.kind, o.out.bad)
				}
			}
		}
	}
	if !t.st.Current().Graph.Equal(t.g0) {
		rep.fail("traced run left a graph different from the initial one")
	}
	// Coverage: every layer listed for the workload's op kinds appears.
	var missing []string
	need := append([]string(nil), workloadLayers[sc.workload]...)
	for k := range hv.byKind {
		need = append(need, wantLayers[k]...)
	}
	for _, n := range need {
		if !seen[n] {
			missing = append(missing, n)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		rep.fail("traced run is missing layer spans %v", missing)
	}

	counters := map[string]float64{}
	for n, v := range before {
		counters[n] = float64(t.o.Registry().Counter(n) - v)
	}
	buildMS := 0.0
	if h, ok := t.o.Registry().HistSnapshot("mat.build_us"); ok {
		buildMS = h.Sum / 1000
	}

	// Phase B: one client alone, counting allocations per call and WAL
	// bytes per write. Go counts allocations per process, so this pass runs
	// with nothing else active.
	ac := newAllocCounter()
	allocs := map[string][]float64{}
	var walGrowth, userBytes int64
	st0 := sc.stream(0)
	for i := 0; i < allocOps[sc.workload]; i++ {
		x := st0.next(false)
		rec := &recorder{alloc: ac, allocs: map[string]int64{}}
		w0 := walSize(dir)
		o := t.exec(context.Background(), x, rec)
		if o.bad != "" {
			rep.fail("allocation pass %s: %s", x.kind, o.bad)
			break
		}
		if x.batch != nil {
			w1 := walSize(dir)
			if w1 < w0 { // a checkpoint reset the log during this commit
				w0 = 0
			}
			walGrowth += w1 - w0
			userBytes += int64(o.userBytes)
			allocs["commit"] = append(allocs["commit"], float64(rec.allocs["store.Insert"]+rec.allocs["store.Delete"]))
		}
		if x.kind == kindQuery && !o.hit {
			allocs["load"] = append(allocs["load"], float64(rec.allocs["owl.GraphToDB"]+rec.allocs["chase.FromFacts"]))
			allocs["eval"] = append(allocs["eval"], float64(rec.allocs["triq.EvalCtx"]))
		}
	}
	for x := st0.next(true); x != nil; x = st0.next(true) {
		if o := t.exec(context.Background(), x, &recorder{alloc: ac, allocs: map[string]int64{}}); o.bad != "" {
			rep.fail("allocation pass %s: %s", x.kind, o.bad)
		}
	}

	putLayerMetrics(rep, sc, ops, hv, counters, buildMS, allocs, walGrowth, userBytes, rt0, rt1)
	if err := writeSpans(cfg.spans, ops); err != nil {
		return nil, err
	}
	rep.printf("spans: %s", cfg.spans)
	return res, nil
}

// layerSamples gathers, over the ops of the given kinds that pass keep,
// one value per op.
func layerSamples(ops [][]tracedOp, keep func(*tracedOp) bool, val func(*tracedOp) float64) []float64 {
	var vs []float64
	for c := range ops {
		for i := range ops[c] {
			if o := &ops[c][i]; o.out.bad == "" && keep(o) {
				vs = append(vs, val(o))
			}
		}
	}
	return vs
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func putLayerMetrics(rep *report, sc *scenario, ops [][]tracedOp, hv httpView, counters map[string]float64, buildMS float64,
	allocs map[string][]float64, walGrowth, userBytes int64, rt0, rt1 runtimeStats) {
	isKind := func(k string) func(*tracedOp) bool { return func(o *tracedOp) bool { return o.x.kind == k } }
	isWrite := func(o *tracedOp) bool { return o.x.batch != nil }
	chased := func(o *tracedOp) bool { return o.x.kind == kindQuery && o.out.stats != nil }
	loaded := func(o *tracedOp) bool { return o.x.kind == kindQuery && !o.out.hit }
	every := func(*tracedOp) bool { return true }
	span := func(names ...string) func(*tracedOp) float64 {
		return func(o *tracedOp) float64 {
			var d time.Duration
			for _, n := range names {
				d += o.layers[n]
			}
			return ms(d)
		}
	}
	p50 := func(keep func(*tracedOp) bool, val func(*tracedOp) float64) float64 {
		return quantile(layerSamples(ops, keep, val), 0.5)
	}
	stat := func(f func(chase.Stats) float64) float64 {
		return p50(chased, func(o *tracedOp) float64 { return f(*o.out.stats) })
	}
	attempted := func(s chase.Stats) float64 {
		n := 0
		for _, r := range s.PerRule {
			n += r.TriggersAttempted
		}
		return float64(n)
	}

	// Serve: the server's queue wait, and what HTTP adds over the traced
	// in-process path, weighted by each op kind's share of the ops.
	rep.put("serve.queue_wait_ms.p95", hv.queueWaitP95, "ms")
	var overhead, httpSum, tracedSum float64
	total := 0
	for k, lat := range hv.byKind {
		tr := layerSamples(ops, isKind(k), func(o *tracedOp) float64 { return ms(o.total) })
		if len(tr) == 0 {
			continue
		}
		overhead += float64(len(lat)) * (quantile(lat, 0.5) - quantile(tr, 0.5))
		total += len(lat)
		for _, v := range lat {
			httpSum += v
		}
		for _, v := range tr {
			tracedSum += v
		}
	}
	rep.put("serve.overhead_ms.p50", ratio(overhead, float64(total)), "ms")
	rep.put("serve.encode_ms.p50", p50(isKind(kindQuery), span("serve.encode")), "ms")
	rep.put("datalog.parse_ms.p50", p50(isKind(kindQuery), span("datalog.ParseQuery")), "ms")
	rep.put("triq.validate_ms.p50", p50(isKind(kindQuery), span("triq.Validate")), "ms")
	rep.put("sparql.parse_ms.p50", p50(isKind(kindSparql), span("sparql.ParseQuery")), "ms")
	rep.put("translate.compile_ms.p50", p50(isKind(kindSparql), span("translate.TracedCtx")), "ms")
	rep.put("translate.decode_ms.p50", p50(isKind(kindSparql), span("translate.decode", "sparql.rows")), "ms")
	rep.put("owl.graph_to_db_ms.p50", p50(loaded, span("owl.GraphToDB")), "ms")
	rep.put("chase.from_facts_ms.p50", p50(loaded, span("chase.FromFacts")), "ms")
	rep.put("chase.load_alloc_mb.p50", median(allocs["load"])/1e6, "MB")
	rep.put("triq.eval_ms.p50", p50(loaded, span("triq.EvalCtx")), "ms")
	rep.put("chase.eval_alloc_mb.p50", median(allocs["eval"])/1e6, "MB")
	rep.put("chase.run_ms.p50", p50(chased, span("chase.run")), "ms")
	rep.put("chase.ground_ms.p50", p50(chased, func(o *tracedOp) float64 { return ms(o.layers["chase.deepen"] - o.layers["chase.run"]) }), "ms")
	rep.put("chase.rounds", stat(func(s chase.Stats) float64 { return float64(s.Rounds) }), "count")
	rep.put("chase.triggers_attempted", stat(attempted), "count")
	rep.put("chase.triggers_fired", stat(func(s chase.Stats) float64 { return float64(s.TriggersFired) }), "count")
	rep.put("chase.fire_ratio", stat(func(s chase.Stats) float64 { return ratio(float64(s.TriggersFired), attempted(s)) }), "ratio")
	rep.put("chase.facts_derived", stat(func(s chase.Stats) float64 { return float64(s.FactsDerived) }), "count")
	rep.put("triq.decode_ms.p50", p50(isKind(kindQuery), span("triq.decode")), "ms")

	// Mat: warm serving, and maintenance per write.
	reads := layerSamples(ops, isKind(kindQuery), func(o *tracedOp) float64 {
		if o.out.hit {
			return 1
		}
		return 0
	})
	hits := 0.0
	for _, v := range reads {
		hits += v
	}
	writes := float64(len(layerSamples(ops, isWrite, span())))
	rep.put("mat.serve_ms.p50", p50(func(o *tracedOp) bool { return o.out.hit }, span("triq.ServeMaterialized")), "ms")
	rep.put("mat.hit_ratio", ratio(hits, float64(len(reads))), "ratio")
	maint := layerSamples(ops, func(o *tracedOp) bool { return isWrite(o) && o.layers["mat.OnCommit"] > 0 }, span("mat.OnCommit"))
	rep.put("mat.maintain_ms.p50", quantile(maint, 0.5), "ms")
	rep.put("mat.maintain_ms.p95", quantile(maint, 0.95), "ms")
	rep.put("mat.triggers_per_write", ratio(counters["mat.triggers"], writes), "count")
	rep.put("mat.derived_per_write", ratio(counters["mat.derived"], writes), "count")
	rep.put("mat.overdeleted_per_write", ratio(counters["mat.overdeleted"], writes), "count")
	rep.put("mat.rederive_ratio", ratio(counters["mat.rederived"], counters["mat.overdeleted"]), "ratio")
	rep.put("mat.build_ms", buildMS, "ms")

	// Store: the commit and what it is made of.
	commit := span("store.Insert", "store.Delete")
	rep.put("rdf.parse_ms.p50", p50(isWrite, span("rdf.ParseNTriplesString")), "ms")
	rep.put("store.commit_ms.p50", p50(isWrite, commit), "ms")
	rep.put("store.commit_ms.p95", quantile(layerSamples(ops, isWrite, commit), 0.95), "ms")
	rep.put("store.commit_alloc_mb.p50", median(allocs["commit"])/1e6, "MB")
	rep.put("store.wal_sync_ms.p50", p50(isWrite, span("wal.sync")), "ms")
	rep.put("store.self_ms.p50", p50(isWrite, func(o *tracedOp) float64 {
		return ms(o.layers["store.Insert"] + o.layers["store.Delete"] - o.layers["wal.sync"] - o.layers["mat.OnCommit"])
	}), "ms")
	rep.put("store.wal_bytes_per_user_byte", ratio(float64(walGrowth), float64(userBytes)), "ratio")
	rep.put("store.recovery_s", hv.recoveryS, "s")

	rep.put("runtime.gc_cpu_frac", ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU), "ratio")
	rep.put("unattributed_ms.p50", p50(every, func(o *tracedOp) float64 { return ms(o.total - o.direct) }), "ms")
	rep.put("trace.overhead_ratio", ratio(tracedSum, httpSum), "ratio")

	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.metrics[n]
		rep.printf("%s %.4f %s", n, m.Value, m.Unit)
	}
}

// writeSpans writes every kept span as one JSON line.
func writeSpans(path string, ops [][]tracedOp) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for c := range ops {
		for i := range ops[c] {
			for _, s := range ops[c][i].spans {
				if err := enc.Encode(s); err != nil {
					f.Close()
					return err
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
