package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"globedoc/internal/core"
	"globedoc/internal/document"
	"globedoc/internal/netsim"
	"globedoc/internal/proxy"
	"globedoc/internal/workload"
)

// first-visit: new visitors on the paper testbed at TimeScale 1.0. Each
// visit builds a fresh proxy and core.Client at Paris (20 ms RTT to the
// Amsterdam primary) with empty binding, name, content-cache and
// connection-pool state, and GETs the one element of one of eight
// Figure-4 objects (1 KB and 10 KB). Two visitors run a closed loop. This
// is the Figure-3 cold pipeline, bound by simulated round trips: cutting
// one shows in latency, CPU work only in cpu_ms_per_op. The content cache
// and the proxy are bypassed in effect, so changes to them should leave
// this workload's latency unchanged.
const (
	visitObjects = 8
	visitors     = 2
	visitClient  = netsim.Paris
	visitElement = "image.bin"
	visitScale   = 1.0
	visitTTL     = 24 * time.Hour
)

var visitSizes = []int{1 * workload.KB, 10 * workload.KB}

type visitInputs struct {
	names []string
	docs  []*document.Document
	elems []element
}

func visitCorpus(seed uint64) *visitInputs {
	in := &visitInputs{}
	for i := 0; i < visitObjects; i++ {
		name := fmt.Sprintf("visit-%d.bench", i)
		doc := workload.SingleElementDoc(visitSizes[i%len(visitSizes)], streamSeed(seed, 200+i))
		e, _ := doc.Get(visitElement)
		in.names = append(in.names, name)
		in.docs = append(in.docs, doc)
		in.elems = append(in.elems, element{object: name, name: visitElement, url: proxy.HybridURL(name, visitElement), data: e.Data})
	}
	return in
}

type visitEnv struct {
	cfg  runConfig
	in   *visitInputs
	tb   *testbed
	taps *taps
	bad  mismatches

	// Traced visits go straight to core.Client.FetchNamed, whose Timing
	// splits each visit into the Figure-3 steps.
	mu     sync.Mutex
	timing core.Timing
	share  float64
	onWarm atomic.Int64
	n      int
}

func setupVisit(cfg runConfig, in *visitInputs, t *taps) (env, error) {
	tb, err := newTestbed(visitScale, nil)
	if err != nil {
		return nil, err
	}
	e := &visitEnv{cfg: cfg, in: in, tb: tb, taps: t}
	if _, err = tb.publishSet(in.names, in.docs, cfg.owners[:visitObjects], visitTTL, time.Now()); err != nil {
		tb.close()
		return nil, err
	}
	return e, nil
}

func (e *visitEnv) close() { e.tb.close() }

// warm does nothing: every visit starts cold by design.
func (e *visitEnv) warm() error { return nil }

func (e *visitEnv) run(m *meter, phase int) {
	var wg sync.WaitGroup
	for v := 0; v < visitors; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			s := newUniformStream(e.cfg.seed, phase*visitors+v, len(e.in.elems))
			for m.running() {
				el := &e.in.elems[s.next()]
				start := time.Now()
				err := e.visit(el)
				m.read(time.Since(start), err)
			}
		}(v)
	}
	wg.Wait()
}

// visit is one new visitor: a fresh secure client (and, untraced, a
// fresh proxy) fetching one element, checked against the published bytes.
func (e *visitEnv) visit(el *element) error {
	sc, err := e.tb.newSecure(visitClient, 0, e.taps)
	if err != nil {
		return err
	}
	defer sc.close()
	var body []byte
	if e.taps == nil {
		rec := httptest.NewRecorder()
		e.tb.newProxy(sc).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, el.url, nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("HTTP %d", rec.Code)
		}
		body = rec.Body.Bytes()
	} else {
		res, err := sc.FetchNamed(context.Background(), el.object, el.name)
		if err != nil {
			return err
		}
		body = res.Element.Data
		if e.taps.on.Load() {
			e.mu.Lock()
			e.timing.Add(res.Timing)
			e.share += res.Timing.OverheadPercent()
			e.n++
			e.mu.Unlock()
			if res.WarmBinding {
				e.onWarm.Add(1)
			}
		}
	}
	if err := checkBody(body, el.data); err != nil {
		e.bad.add(err)
		return err
	}
	return nil
}

func (e *visitEnv) check() (int, error) { return e.bad.count() }

func (e *visitEnv) traced(l *layers, b phaseStats) {
	e.mu.Lock()
	defer e.mu.Unlock()
	l.timing(e.timing, e.n, e.share)
	l.set("core.warm_ratio", ratio(e.onWarm.Load(), int64(e.n)), "ratio")
}

func (e *visitEnv) labInputs() labInputs {
	return labInputs{
		names:  e.in.names,
		docs:   e.in.docs,
		owners: e.cfg.owners[:visitObjects],
		client: visitClient,
	}
}
