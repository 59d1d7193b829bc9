package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/chase"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/serve"
	"repro/internal/store"
)

// triqd's defaults, as cmd/triqd sets them when no flag is given.
const (
	flagConcurrency = 4
	flagQueue       = 16
	flagParallelism = 1
	flagRetries     = 3
)

// storeConfig is triqd's store configuration with -wal-sync always.
func storeConfig(dir string, o *obs.Obs, onCommit func(store.CommitEvent)) store.Config {
	return store.Config{
		Dir:             dir,
		Sync:            store.SyncAlways,
		SyncInterval:    100 * time.Millisecond,
		CheckpointEvery: 1024,
		CheckpointBytes: 64 << 20,
		Obs:             o,
		TimelineCap:     512,
		OnCommit:        onCommit,
	}
}

// newMat is triqd's -materialize materializer.
func newMat(o *obs.Obs) *mat.Materializer {
	return mat.New(mat.Config{Chase: chase.Options{Parallelism: flagParallelism}, Obs: o})
}

// system is one triqd: store, optional materializer and server, on a
// loopback listener.
type system struct {
	dir  string
	o    *obs.Obs
	st   *store.Store
	m    *mat.Materializer
	srv  *serve.Server
	hs   *http.Server
	done chan error
	base string
}

// startSystem builds a server the way cmd/triqd does with default flags and
// seeds its store from g.
func startSystem(g *rdf.Graph, dir string, materialize bool, traceSeed int64) (*system, error) {
	s := &system{dir: dir, o: obs.New(), done: make(chan error, 1)}
	if materialize {
		s.m = newMat(s.o)
	}
	s.srv = serve.New(serve.Config{
		Admission: serve.AdmissionConfig{
			MaxConcurrent: flagConcurrency,
			MaxQueue:      flagQueue,
			QueueTimeout:  time.Second,
		},
		Retry:          serve.RetryConfig{MaxAttempts: flagRetries},
		DefaultTimeout: 10 * time.Second,
		MaxTimeout:     60 * time.Second,
		Obs:            s.o,
		Parallelism:    flagParallelism,
		Trace:          serve.TraceConfig{Sample: 0.1, Capacity: 256, Seed: traceSeed},
		AutoProfile:    serve.AutoProfileConfig{CPUDuration: 2 * time.Second, Cooldown: time.Minute},
		HealthInterval: 10 * time.Second,
		MaxBodyBytes:   8 << 20,
		StalenessWait:  2 * time.Second,
		Mat:            s.m,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv.SetRecovering(true)
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.done <- s.hs.Serve(ln) }()

	var onCommit func(store.CommitEvent)
	if s.m != nil {
		onCommit = s.m.OnCommit
	}
	s.st, _, err = store.Open(storeConfig(dir, s.o, onCommit))
	if err == nil {
		_, err = s.st.Bootstrap(g)
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	if s.m != nil {
		s.m.Reset(s.st.Current().Seq)
	}
	s.srv.SetStore(s.st)
	s.srv.SetRecovering(false)
	return s, nil
}

// stop drains the server and closes the store, waiting for both.
func (s *system) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	shut := s.hs.Shutdown(ctx)
	drain := s.srv.Drain(ctx)
	if err := <-s.done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	var closeErr error
	if s.st != nil {
		closeErr = s.st.Close()
	}
	return errors.Join(shut, drain, closeErr)
}

// client is one closed-loop caller on its own keep-alive connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, base: base}
}

func (c *client) close() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// sample is one completed op.
type sample struct {
	x       *op
	lat     time.Duration
	epoch   uint64
	ans     answer
	applied int
	bad     string // why the op failed; empty when it passed every check
}

// do sends one op and waits for the whole reply. The latency covers the
// request and the response body; decoding the body comes after.
func (c *client) do(x *op) sample {
	s := sample{x: x}
	t0 := time.Now()
	resp, err := c.hc.Post(c.base+"/"+x.kind, "application/json", bytes.NewReader(x.body))
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	s.lat = time.Since(t0)
	if err != nil {
		s.bad = err.Error()
		return s
	}
	if resp.StatusCode != http.StatusOK {
		s.bad = fmt.Sprintf("status %d: %.200s", resp.StatusCode, body)
		return s
	}
	if x.batch != nil {
		var mr serve.MutationResponse
		if err := json.Unmarshal(body, &mr); err != nil {
			s.bad = err.Error()
			return s
		}
		s.epoch, s.applied = mr.Epoch, mr.Applied
		return s
	}
	var qr serve.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		s.bad = err.Error()
		return s
	}
	if qr.Incomplete || qr.Inconsistent {
		s.bad = "incomplete or inconsistent answer"
	}
	s.epoch, s.ans = qr.Epoch, answerOf(qr.Rows)
	return s
}

// closedLoop runs the workload's clients, each sending its next op as soon
// as the previous reply arrives, until the window closes and every open
// insert has been deleted again. It returns each client's samples and the
// wall time the loop took.
func closedLoop(sc *scenario, base string, window time.Duration) ([][]sample, time.Duration) {
	out := make([][]sample, clients)
	done := make(chan struct{})
	start := time.Now()
	deadline := start.Add(window)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer func() { done <- struct{}{} }()
			cl := newClient(base)
			defer cl.close()
			st := sc.stream(c)
			for {
				x := st.next(time.Now().After(deadline))
				if x == nil {
					return
				}
				out[c] = append(out[c], cl.do(x))
			}
		}(c)
	}
	for c := 0; c < clients; c++ {
		<-done
	}
	return out, time.Since(start)
}

// warm issues one read of each mixed-mat program, which builds its
// materialization, so the timed window starts warm.
func warm(sc *scenario, base string) error {
	cl := newClient(base)
	defer cl.close()
	for _, p := range []int{progTransport, progUniversity} {
		x := sc.withBody(&op{kind: kindQuery, prog: p})
		if s := cl.do(x); s.bad != "" {
			return fmt.Errorf("warm-up read: %s", s.bad)
		}
	}
	return nil
}

// walSize is the WAL file's size in bytes.
func walSize(dir string) int64 {
	fi, err := os.Stat(dir + "/wal.log")
	if err != nil {
		return 0
	}
	return fi.Size()
}
