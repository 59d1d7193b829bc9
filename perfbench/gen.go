package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/rdf"
	"repro/internal/serve"
	"repro/internal/workload"
)

// Graph shape. Every seed builds a graph of the same size and shape, so run
// to run differences in cost come from the system, not from the inputs: the
// seed picks names, the department each read selects, and batch contents.
const (
	departments  = 100
	profsPerDep  = 10
	studsPerProf = 8
	lines        = 16
	lineDepth    = 3
	lineCities   = 6
	batchSize    = 8
	clients      = 2
)

// Op kinds, named after the endpoint they hit.
const (
	kindQuery  = "query"
	kindSparql = "sparql"
	kindInsert = "insert"
	kindDelete = "delete"
)

// Read programs.
const (
	progTransport = iota
	progUniversity
)

// transportProgram is the recursive TriQ-Lite transport closure of Section 2.
const transportProgram = `triple(?X, partOf, transportService) -> ts(?X).
triple(?X, partOf, ?Y), ts(?Y) -> ts(?X).
ts(?T), triple(?X, ?T, ?Y) -> conn(?X, ?Y).
ts(?T), triple(?X, ?T, ?Z), conn(?Z, ?Y) -> conn(?X, ?Y).
conn(?X, ?Y) -> query(?X, ?Y).`

// universityProgram is a non-recursive program over one department, so the
// materializer maintains it with counting deletes rather than DRed.
func universityProgram(dept int) string {
	return fmt.Sprintf(`triple(?P, worksFor, dept%d) -> member(?P).
triple(?P, advises, ?S), member(?P) -> query(?P, ?S).`, dept)
}

// sparqlQuery is a plain-regime BGP with an OPTIONAL, selective on one
// department.
func sparqlQuery(dept int) string {
	return fmt.Sprintf("SELECT ?p ?s ?c WHERE { ?p worksFor dept%d . ?p advises ?s . OPTIONAL { ?p rdf:type ?c } }", dept)
}

// scenario is everything one seed determines: the graph and, per client, the
// op stream.
type scenario struct {
	workload string
	seed     int64
	tag      string // transport service name prefix
	uniDept  int    // department of the mixed-mat university program
	lastCity string // end of the transport route; mixed-mat batches extend it
}

func newScenario(name string, seed int64) *scenario {
	rng := rand.New(rand.NewSource(seed))
	return &scenario{
		workload: name,
		seed:     seed,
		tag:      fmt.Sprintf("t%04d", rng.Intn(10000)),
		uniDept:  rng.Intn(departments),
		lastCity: fmt.Sprintf("city_%d", workload.TransportCityCount(lines, lineCities)-1),
	}
}

// graph builds the seeded graph: a LUBM-shaped university plus one transport
// route, 10,194 triples.
func (sc *scenario) graph() *rdf.Graph {
	g := workload.University(departments, profsPerDep, studsPerProf, false).ToGraph()
	g.AddGraph(workload.TransportGraph(lines, lineDepth, lineCities, sc.tag))
	return g
}

// batch is one write's triples plus what the answer oracles need to know
// about it.
type batch struct {
	triples []rdf.Triple
	ext     []string    // mixed-mat: cities chained after lastCity, in order
	advises [][2]string // mixed-mat: (professor, student) edges added
}

// op is one request of a client's stream.
type op struct {
	kind  string
	prog  int // query: progTransport or progUniversity
	dept  int // sparql: selected department
	batch *batch
	body  []byte // the JSON request body the server receives
}

// text is the query text an op sends (empty for writes).
func (sc *scenario) text(o *op) string {
	switch {
	case o.kind == kindSparql:
		return sparqlQuery(o.dept)
	case o.kind == kindQuery && o.prog == progUniversity:
		return universityProgram(sc.uniDept)
	case o.kind == kindQuery:
		return transportProgram
	}
	return ""
}

// stream yields one client's ops in order. Op i depends only on the seed,
// the workload, the client and i. Op kinds are drawn at random rather than
// in a fixed cycle so the two clients' slow ops do not lock into one phase
// for a whole run.
type stream struct {
	sc     *scenario
	client int
	rng    *rand.Rand
	i      int
	reads  int    // reads so far
	flip   bool   // the order of the current pair of read kinds
	wpos   int    // mixed-mat: the write's position in the current block
	open   *batch // the inserted batch whose delete is still to come
	nBatch int
}

// mixedBlock is the block of mixed-mat ops that holds exactly one write, at
// a seeded position: 10% writes. Writes alternate between inserting a fresh
// batch and deleting it again.
const mixedBlock = 10

func (sc *scenario) stream(client int) *stream {
	return &stream{sc: sc, client: client, rng: rand.New(rand.NewSource(sc.seed*7919 + int64(client) + 1))}
}

// next returns the client's next op. With stop set it returns nil instead,
// unless an insert is still open: then it returns that batch's delete, so
// every run ends with the graph it started with.
func (s *stream) next(stop bool) *op {
	if stop && s.open == nil {
		return nil
	}
	write := stop
	var o *op
	switch s.sc.workload {
	case "read-chase":
		if s.pairFirst() {
			o = &op{kind: kindQuery, prog: progTransport}
		} else {
			o = &op{kind: kindSparql, dept: s.rng.Intn(departments)}
		}
	case "write-commit":
		write = true
	case "mixed-mat":
		if s.i%mixedBlock == 0 {
			s.wpos = s.rng.Intn(mixedBlock)
		}
		switch {
		case s.i%mixedBlock == s.wpos:
			write = true
		case s.pairFirst():
			o = &op{kind: kindQuery, prog: progTransport}
		default:
			o = &op{kind: kindQuery, prog: progUniversity}
		}
	default:
		panic("unknown workload " + s.sc.workload)
	}
	switch {
	case write && s.open != nil:
		o = &op{kind: kindDelete, batch: s.open}
		s.open = nil
	case write && s.sc.workload == "write-commit":
		o = &op{kind: kindInsert, batch: s.commitBatch()}
		s.open = o.batch
	case write:
		o = &op{kind: kindInsert, batch: s.mixedBatch()}
		s.open = o.batch
	}
	s.i++
	return s.sc.withBody(o)
}

// pairFirst counts a read and reports whether it gets the first of the
// workload's two read kinds. Each pair of reads holds one of each kind in a
// seeded order, so both kinds get exactly half of a client's reads.
func (s *stream) pairFirst() bool {
	if s.reads%2 == 0 {
		s.flip = s.rng.Intn(2) == 0
	}
	s.reads++
	return (s.reads%2 == 1) == s.flip
}

// withBody renders the JSON request body the server receives for an op.
func (sc *scenario) withBody(o *op) *op {
	var v any
	switch o.kind {
	case kindQuery:
		v = serve.QueryRequest{Program: sc.text(o)}
	case kindSparql:
		v = serve.QueryRequest{Query: sc.text(o)}
	default:
		var b strings.Builder
		for _, t := range o.batch.triples {
			b.WriteString(t.String())
			b.WriteByte('\n')
		}
		v = serve.MutationRequest{Triples: b.String()}
	}
	body, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	o.body = body
	return o
}

// fresh names a new node unique to this client and batch.
func (s *stream) fresh(kind string, k int) string {
	return fmt.Sprintf("b%s_c%d_n%d_%s%d", s.sc.tag, s.client, s.nBatch, kind, k)
}

func (s *stream) prof(dept int) string {
	return fmt.Sprintf("prof_%d_%d", dept, 1+s.rng.Intn(profsPerDep-1))
}

// commitBatch is 4 advises edges and 4 class assertions on rdf:type, the
// predicate with the longest index buckets.
func (s *stream) commitBatch() *batch {
	s.nBatch++
	classes := []string{"student", "person", "professor"}
	b := &batch{}
	for k := 0; k < batchSize/2; k++ {
		x := s.fresh("x", k)
		b.triples = append(b.triples,
			rdf.T(s.prof(s.rng.Intn(departments)), "advises", x),
			rdf.T(x, rdf.RDFType, classes[s.rng.Intn(len(classes))]))
	}
	return b
}

// mixedBatch extends the transport route past its last city by a new
// service three cities long, hung below a seeded line's hierarchy, and adds
// advises edges from professors of the university program's department.
func (s *stream) mixedBatch() *batch {
	s.nBatch++
	b := &batch{}
	svc := s.fresh("svc", 0)
	parent := fmt.Sprintf("%s_line%d_lvl1", s.sc.tag, s.rng.Intn(lines))
	b.triples = append(b.triples, rdf.T(svc, "partOf", parent))
	prev := s.sc.lastCity
	for k := 0; k < 3; k++ {
		c := s.fresh("city", k)
		b.triples = append(b.triples, rdf.T(prev, svc, c))
		b.ext = append(b.ext, c)
		prev = c
	}
	for k := 0; k < 4; k++ {
		e := [2]string{s.prof(s.sc.uniDept), s.fresh("stud", k)}
		b.triples = append(b.triples, rdf.T(e[0], "advises", e[1]))
		b.advises = append(b.advises, e)
	}
	return b
}
