package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"globedoc/internal/document"
	"globedoc/internal/netsim"
	"globedoc/internal/proxy"
	"globedoc/internal/workload"
)

// browse: returning visitors on the paper testbed at TimeScale 0. A proxy
// at the Amsterdam secondary, reached over loopback HTTP by two
// closed-loop keep-alive connections, serves a Zipf(0.9) request stream
// over the 330 elements of 30 Figure-5 composite documents (15/105/1005
// KB rotating, 11.5 MB) published on the Amsterdam primary. The
// verified-content cache is sized to a quarter of the corpus, so most
// requests are cache hits and the misses go through transport, server
// and hashing: the steady serving path, CPU-bound.
const (
	browseDocs        = 30
	browseConns       = 2
	browseWarmup      = 1500 // requests per connection before timing
	browseClient      = netsim.AmsterdamSecondary
	browseVCacheShare = 4 // vcache budget = corpus / browseVCacheShare
)

// element is one page element a workload requests, with the bytes its
// owner published.
type element struct {
	object, name, url string
	data              []byte
}

type browseInputs struct {
	names []string
	docs  []*document.Document
	elems []element // in a fixed order: doc by doc, elements by name
	bytes int64
	// rank lists element indices from most to least popular.
	rank []int
}

// browseCorpus generates the 30 documents from the seed.
func browseCorpus(seed uint64) *browseInputs {
	in := &browseInputs{}
	for i := 0; i < browseDocs; i++ {
		name := fmt.Sprintf("browse-%02d.bench", i)
		doc := workload.CompositeDoc(workload.Fig5ImageSizes[i%len(workload.Fig5ImageSizes)], streamSeed(seed, 100+i))
		in.names = append(in.names, name)
		in.docs = append(in.docs, doc)
		elems, _ := doc.Snapshot()
		for _, e := range elems {
			in.elems = append(in.elems, element{object: name, name: e.Name, url: proxy.HybridURL(name, e.Name), data: e.Data})
			in.bytes += int64(len(e.Data))
		}
	}
	in.rank = stratifiedRanking(seed, in.elems)
	return in
}

// stratifiedRanking orders the elements by popularity. Which element
// holds a rank is seeded, but the size of the element at each rank is
// not: a seed-independent shuffle fixes the size class per rank and the
// seed picks the element within its class. A seed thus changes which
// bytes are hot but not how many, so runs on different seeds measure the
// same mix.
func stratifiedRanking(seed uint64, elems []element) []int {
	byClass := make(map[int][]int)
	for i, e := range elems {
		byClass[len(e.data)] = append(byClass[len(e.data)], i)
	}
	for class, members := range byClass {
		p := permutation(workload.NewRand(streamSeed(seed, 500+class)), len(members))
		shuffled := make([]int, len(members))
		for i, j := range p {
			shuffled[i] = members[j]
		}
		byClass[class] = shuffled
	}
	classAt := permutation(workload.NewRand(0x2545f491), len(elems))
	rank := make([]int, len(elems))
	for k, i := range classAt {
		class := len(elems[i].data)
		rank[k], byClass[class] = byClass[class][0], byClass[class][1:]
	}
	return rank
}

type browseEnv struct {
	cfg   runConfig
	in    *browseInputs
	tb    *testbed
	sc    *secureClient
	front *httpFront
	taps  *taps
	bad   mismatches

	onWarm, seen atomic.Int64 // traced responses, and those on a warm binding
}

func setupBrowse(cfg runConfig, in *browseInputs, t *taps) (env, error) {
	tb, err := newTestbed(0, nil)
	if err != nil {
		return nil, err
	}
	e := &browseEnv{cfg: cfg, in: in, tb: tb, taps: t}
	if _, err = tb.publishSet(in.names, in.docs, cfg.owners[:browseDocs], 24*time.Hour, time.Now()); err != nil {
		e.close()
		return nil, err
	}
	if e.sc, err = tb.newSecure(browseClient, in.bytes/browseVCacheShare, t); err != nil {
		e.close()
		return nil, err
	}
	if e.front, err = serveHTTP(tb.newProxy(e.sc)); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// warm fills the binding and content caches before timing.
func (e *browseEnv) warm() error {
	if err := e.drive(nil, browseWarmup, 1000); err != nil {
		return fmt.Errorf("browse warm-up: %w", err)
	}
	return nil
}

func (e *browseEnv) close() {
	if e.front != nil {
		e.front.close()
	}
	if e.sc != nil {
		e.sc.close()
	}
	e.tb.close()
}

func (e *browseEnv) run(m *meter, phase int) {
	_ = e.drive(m, 0, phase*browseConns) // failures are counted by the meter
}

// drive runs the closed loop on browseConns connections: until m's phase
// ends, or for count requests per connection when m is nil. Stream
// indices start at stream so the warm-up and each phase draw their own
// sequences from the seed.
func (e *browseEnv) drive(m *meter, count, stream int) error {
	var wg sync.WaitGroup
	errs := make([]error, browseConns)
	for c := 0; c < browseConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			b := newBrowser()
			defer b.close()
			s := newBrowseStream(e.cfg.seed, stream+c, e.in.rank)
			ctx := context.Background()
			for n := 0; m == nil && n < count || m != nil && m.running(); n++ {
				el := &e.in.elems[s.next()]
				start := time.Now()
				body, hdr, err := b.get(ctx, e.front.base+el.url)
				lat := time.Since(start)
				if err == nil {
					if err = checkBody(body, el.data); err != nil {
						e.bad.add(err)
					}
				}
				if m == nil {
					if err != nil {
						errs[c] = err
						return
					}
					continue
				}
				m.read(lat, err)
				if err == nil && e.taps != nil && e.taps.on.Load() {
					countWarm(&e.onWarm, &e.seen, hdr)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// countWarm counts a traced proxy response and whether it was served on
// a warm binding.
func countWarm(warm, seen *atomic.Int64, hdr http.Header) {
	seen.Add(1)
	if hdr.Get(proxy.HeaderWarm) == "true" {
		warm.Add(1)
	}
}

func (e *browseEnv) check() (int, error) { return e.bad.count() }

func (e *browseEnv) traced(l *layers, b phaseStats) {
	l.set("core.warm_ratio", ratio(e.onWarm.Load(), e.seen.Load()), "ratio")
}

func (e *browseEnv) labInputs() labInputs {
	return labInputs{
		names:      e.in.names,
		docs:       e.in.docs,
		owners:     e.cfg.owners[:browseDocs],
		client:     browseClient,
		coldTiming: true,
	}
}
