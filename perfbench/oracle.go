package main

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro"
	"repro/internal/rdf"
	"repro/internal/workload"
)

// answer is an order-independent fingerprint of a row set: the row count
// and the wrapping sum of per-row FNV-1a hashes.
type answer struct {
	rows int
	sum  uint64
}

func rowHash(row string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(row))
	return h.Sum64()
}

func (a *answer) add(row string) {
	a.rows++
	a.sum += rowHash(row)
}

func answerOf(rows []string) answer {
	var a answer
	for _, r := range rows {
		a.add(r)
	}
	return a
}

func iri(name string) string { return rdf.NewIRI(name).String() }

// oracle computes the expected answer of every read from the generator's
// own model of the graph, independently of the engine: closed forms for
// the transport closure and the university program, and the direct SPARQL
// algebra for /sparql.
type oracle struct {
	sc     *scenario
	g      *rdf.Graph // the initial graph
	sparql map[int]answer
	cities []string // the route's cities in order
	route  answer   // the closure over the route alone
}

func newOracle(sc *scenario, g *rdf.Graph) *oracle {
	n := workload.TransportCityCount(lines, lineCities)
	o := &oracle{sc: sc, g: g, sparql: map[int]answer{}}
	for i := 0; i < n; i++ {
		o.cities = append(o.cities, fmt.Sprintf("city_%d", i))
	}
	for i, x := range o.cities {
		for _, y := range o.cities[i+1:] {
			o.route.add(iri(x) + " " + iri(y))
		}
	}
	if want := n * (n - 1) / 2; o.route.rows != want {
		panic(fmt.Sprintf("transport oracle: %d rows, closed form C(C-1)/2 = %d", o.route.rows, want))
	}
	return o
}

// transport is the closure over the route plus the live extension batches:
// with C cities on one route every ordered pair i < j connects, C(C-1)/2
// rows, and an extension hung off the last city adds its cities behind all
// of them.
func (o *oracle) transport(live []*batch) answer {
	a := o.route
	for _, b := range live {
		for j, y := range b.ext {
			for _, x := range o.cities {
				a.add(iri(x) + " " + iri(y))
			}
			for _, x := range b.ext[:j] {
				a.add(iri(x) + " " + iri(y))
			}
		}
	}
	return a
}

// university is the mixed-mat university program: every worksFor professor
// of the department (professor 0 heads it instead) with each advisee.
func (o *oracle) university(live []*batch) answer {
	var a answer
	d := o.sc.uniDept
	for p := 1; p < profsPerDep; p++ {
		for s := 0; s < studsPerProf; s++ {
			a.add(iri(fmt.Sprintf("prof_%d_%d", d, p)) + " " + iri(fmt.Sprintf("stud_%d_%d_%d", d, p, s)))
		}
	}
	for _, b := range live {
		for _, e := range b.advises {
			a.add(iri(e[0]) + " " + iri(e[1]))
		}
	}
	return a
}

// sparqlAnswer evaluates the /sparql query of a department with the direct
// algebra over the initial graph (read-chase never writes).
func (o *oracle) sparqlAnswer(dept int) (answer, error) {
	if a, ok := o.sparql[dept]; ok {
		return a, nil
	}
	q, err := repro.ParseSPARQL(sparqlQuery(dept))
	if err != nil {
		return answer{}, err
	}
	ms, err := repro.EvalSPARQL(q, o.g)
	if err != nil {
		return answer{}, err
	}
	a := answerOf(mappingRows(ms))
	o.sparql[dept] = a
	return a, nil
}

// mappingRows renders a mapping set the way /sparql does.
func mappingRows(ms *repro.MappingSet) []string {
	rows := make([]string, 0, ms.Len())
	for _, m := range ms.Mappings() {
		rows = append(rows, m.String())
	}
	return rows
}

// expect is the oracle's answer for one read given the batches live at the
// epoch it read.
func (o *oracle) expect(x *op, live []*batch) (answer, error) {
	switch {
	case x.kind == kindSparql:
		return o.sparqlAnswer(x.dept)
	case x.prog == progUniversity:
		return o.university(live), nil
	default:
		return o.transport(live), nil
	}
}

// write is one acknowledged write, for reconstructing epochs.
type write struct {
	epoch uint64
	x     *op
}

// epochs maps every epoch a run reached to the batches live in it. Each
// acknowledged write with applied > 0 commits exactly one epoch, so
// replaying the writes in epoch order rebuilds each epoch's graph.
type epochs struct {
	base   uint64
	writes []write
	live   map[uint64][]*batch
}

func newEpochs(base uint64, ws []write) *epochs {
	sort.Slice(ws, func(i, j int) bool { return ws[i].epoch < ws[j].epoch })
	e := &epochs{base: base, writes: ws, live: map[uint64][]*batch{base: nil}}
	var cur []*batch
	for _, w := range ws {
		next := make([]*batch, 0, len(cur)+1)
		for _, b := range cur {
			if b != w.x.batch {
				next = append(next, b)
			}
		}
		if w.x.kind == kindInsert {
			next = append(next, w.x.batch)
		}
		cur = next
		e.live[w.epoch] = cur
	}
	return e
}

// at returns the batches live at an epoch, or false if the run never
// committed that epoch.
func (e *epochs) at(epoch uint64) ([]*batch, bool) {
	b, ok := e.live[epoch]
	return b, ok
}

// contiguous checks that the writes committed epochs base+1 … base+n with
// no gap or repeat.
func (e *epochs) contiguous() error {
	for i, w := range e.writes {
		if w.epoch != e.base+uint64(i)+1 {
			return fmt.Errorf("write %d committed epoch %d, want %d", i, w.epoch, e.base+uint64(i)+1)
		}
	}
	return nil
}
