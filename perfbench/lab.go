package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"globedoc/internal/core"
	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/naming"
	"globedoc/internal/netsim"
	"globedoc/internal/object"
	"globedoc/internal/proxy"
	"globedoc/internal/server"
	"globedoc/internal/vcache"
	"globedoc/internal/workload"
)

// labInputs are the parts of a workload the isolated timings run on.
type labInputs struct {
	names  []string
	docs   []*document.Document
	owners []*keys.KeyPair
	client string
	// coldTiming takes the Figure-3 step breakdown and the naming and
	// location call times from the lab's cold fetches; first-visit takes
	// them from its own traced visits instead.
	coldTiming bool
	// noProbe skips the update probe; the update workload measures its
	// writer directly. The read-only workloads run it because every
	// traced run reports every per-layer metric BENCHMARK.json lists.
	noProbe bool
}

// Isolated-timing budgets: each loop stops at its call count or its time
// budget, whichever comes first.
const (
	labCalls     = 20000
	labBudget    = 300 * time.Millisecond
	labColdCalls = 200
	labCold      = 1500 * time.Millisecond
	probeKey     = fixtureKeys - 1
	probeName    = "probe.bench"
	// The update probe replays this many versions of the workload's first
	// document, open loop at one every probeStep.
	probeVersions   = 120
	probeStep       = 10 * time.Millisecond
	probeUpdateName = "probe-update.bench"
)

// loop calls f until calls calls or budget has passed and returns the
// mean time, heap allocations and allocated bytes per call.
func loop(calls int, budget time.Duration, f func(i int) error) (per time.Duration, allocs, bytes float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	n := 0
	for n < calls && (n == 0 || time.Since(start) < budget) {
		if err := f(n); err != nil {
			return 0, 0, 0, err
		}
		n++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return elapsed / time.Duration(n), float64(after.Mallocs-before.Mallocs) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n), nil
}

// runLab builds a TimeScale-0 testbed from the workload's inputs and
// times public functions of each layer in isolation.
func runLab(cfg runConfig, in labInputs, l *layers) error {
	tb, err := newTestbed(0, nil)
	if err != nil {
		return err
	}
	defer tb.close()
	now := time.Now()
	pubs, err := tb.publishSet(in.names, in.docs, in.owners, 24*time.Hour, now)
	if err != nil {
		return err
	}
	probeDoc := document.New()
	r := workload.NewRand(streamSeed(cfg.seed, 400))
	for _, e := range []document.Element{
		{Name: "e1k.bin", Data: r.Bytes(1 * workload.KB)},
		{Name: "e100k.bin", Data: r.Bytes(100 * workload.KB)},
	} {
		if err := probeDoc.Put(e); err != nil {
			return err
		}
	}
	probe, err := tb.publishSet([]string{probeName}, []*document.Document{probeDoc}, cfg.owners[probeKey:probeKey+1], 24*time.Hour, now)
	if err != nil {
		return err
	}

	var elems []element
	for i, doc := range in.docs {
		snap, _ := doc.Snapshot()
		for _, e := range snap {
			elems = append(elems, element{object: in.names[i], name: e.Name, url: proxy.HybridURL(in.names[i], e.Name), data: e.Data})
		}
	}
	ctx := context.Background()
	fetch := func(sc *secureClient) func(i int) error {
		return func(i int) error {
			el := &elems[i%len(elems)]
			res, err := sc.FetchNamed(ctx, el.object, el.name)
			if err == nil {
				err = checkBody(res.Element.Data, el.data)
			}
			return err
		}
	}

	// proxy: in-process ServeHTTP on a warm proxy (content-cache hits).
	sc, err := tb.newSecure(in.client, 0, nil)
	if err != nil {
		return err
	}
	defer sc.close()
	p := tb.newProxy(sc)
	reqs := make([]*http.Request, len(elems))
	for i := range elems {
		reqs[i] = httptest.NewRequest(http.MethodGet, elems[i].url, nil)
	}
	rw := newMemResponse()
	serve := func(i int) error {
		rw.reset()
		p.ServeHTTP(rw, reqs[i%len(reqs)])
		if rw.status != http.StatusOK {
			return fmt.Errorf("lab proxy: HTTP %d: %s", rw.status, failureReason(rw.body.Bytes()))
		}
		return checkBody(rw.body.Bytes(), elems[i%len(elems)].data)
	}
	if _, _, _, err := loop(len(elems), time.Hour, serve); err != nil {
		return err
	}
	per, allocs, _, err := loop(labCalls, labBudget, serve)
	if err != nil {
		return err
	}
	l.set("proxy.serve_us", us(per), "us")
	l.set("proxy.allocs_per_req", allocs, "count")

	// core: content-cache hit, warm binding without the content cache,
	// and fully cold fetches.
	if per, _, _, err = loop(labCalls, labBudget, fetch(sc)); err != nil {
		return err
	}
	l.set("core.fetch_hit_us", us(per), "us")
	warm, err := tb.newSecure(in.client, vcacheOff, nil)
	if err != nil {
		return err
	}
	defer warm.close()
	if _, _, _, err := loop(len(elems), time.Hour, fetch(warm)); err != nil {
		return err
	}
	per, allocs, bytes, err := loop(labCalls, labBudget, fetch(warm))
	if err != nil {
		return err
	}
	l.set("core.fetch_warm_us", us(per), "us")
	l.set("core.allocs_per_fetch", allocs, "count")
	l.set("core.kb_per_fetch", bytes/1024, "KB")

	var cold core.Timing
	var share float64
	coldN := 0
	lt := &taps{}
	lt.on.Store(true)
	coldFetch := func(i int) error {
		c, err := tb.newSecure(in.client, 0, lt)
		if err != nil {
			return err
		}
		defer c.close()
		el := &elems[i%len(elems)]
		res, err := c.FetchNamed(ctx, el.object, el.name)
		if err != nil {
			return err
		}
		cold.Add(res.Timing)
		share += res.Timing.OverheadPercent()
		coldN++
		return checkBody(res.Element.Data, el.data)
	}
	per, _, _, err = loop(labColdCalls, labCold, coldFetch)
	if err != nil {
		return err
	}
	l.set("core.fetch_cold_us", us(per), "us")
	if in.coldTiming {
		l.timing(cold, coldN, share)
		l.set("naming.resolve_ms", meanMS(lt.resolveNS.Load(), lt.resolveN.Load()), "ms")
		l.set("location.lookup_ms", meanMS(lt.lookupNS.Load(), lt.lookupN.Load()), "ms")
	}

	// transport and object: calls on a warm connection pool.
	addr := tb.w.Addrs[primarySite]
	oc := object.NewClient(probe[0].OID, addr, tb.w.Net.Dialer(in.client, addr))
	oc.Transport().Configure(tb.defaults.transport)
	defer oc.Close()
	ping := func(int) error { return oc.Ping(ctx) }
	if err := ping(0); err != nil {
		return err
	}
	if per, allocs, _, err = loop(labCalls, labBudget, ping); err != nil {
		return err
	}
	l.set("transport.call_us", us(per), "us")
	l.set("transport.allocs_per_call", allocs, "count")
	for _, c := range []struct {
		name, metric string
	}{{"e1k.bin", "object.get_element_1k_us"}, {"e100k.bin", "object.get_element_100k_us"}} {
		get := func(int) error {
			_, err := oc.GetElement(ctx, c.name)
			return err
		}
		if per, allocs, _, err = loop(labCalls, labBudget, get); err != nil {
			return err
		}
		l.set(c.metric, us(per), "us")
		if c.name == "e1k.bin" {
			l.set("object.get_element_allocs", allocs, "count")
		}
	}
	wires := make([][]byte, len(elems))
	for i := range elems {
		wires[i] = object.EncodeElement(document.Element{Name: elems[i].name, Data: elems[i].data})
	}
	decode := func(i int) error {
		_, err := object.DecodeElement(wires[i%len(wires)])
		return err
	}
	if per, _, _, err = loop(labCalls, labBudget, decode); err != nil {
		return err
	}
	l.set("object.decode_element_us", us(per), "us")

	// cert and globeid: signature and element verification, hashing.
	pub := pubs[0]
	verifySig := func(int) error { return pub.Cert.VerifySignature(pub.OID, pub.OwnerKey.Public()) }
	if per, _, _, err = loop(labCalls, labBudget, verifySig); err != nil {
		return err
	}
	l.set("cert.verify_sig_us", us(per), "us")
	certOf := make(map[string]int, len(pubs))
	for i, p := range pubs {
		certOf[p.Name] = i
	}
	verifyElem := func(i int) error {
		el := &elems[i%len(elems)]
		return pubs[certOf[el.object]].Cert.VerifyElement(el.name, el.data, now)
	}
	if per, _, _, err = loop(labCalls, labBudget, verifyElem); err != nil {
		return err
	}
	l.set("cert.verify_element_us", us(per), "us")
	hashed := 0
	hash := func(i int) error {
		data := elems[i%len(elems)].data
		globeid.HashElement(data)
		hashed += len(data)
		return nil
	}
	start := time.Now()
	if _, _, _, err = loop(labCalls, labBudget, hash); err != nil {
		return err
	}
	l.set("globeid.hash_mb_per_s", float64(hashed)/(1<<20)/time.Since(start).Seconds(), "MB/s")

	// vcache: copy-in puts and gets of the workload's elements.
	vc := vcache.New(vcache.Config{})
	hashes := make([][globeid.Size]byte, len(elems))
	for i := range elems {
		hashes[i] = globeid.HashElement(elems[i].data)
	}
	expires := now.Add(time.Hour)
	put := func(i int) error {
		k := i % len(elems)
		vc.Put(pub.OID, hashes[k], vcache.Element{Data: elems[k].data}, expires)
		return nil
	}
	if per, _, _, err = loop(labCalls, labBudget, put); err != nil {
		return err
	}
	l.set("vcache.put_us", us(per), "us")
	get := func(i int) error {
		if _, ok := vc.Get(hashes[i%len(hashes)], now, expires); !ok {
			return fmt.Errorf("lab vcache: miss after put")
		}
		return nil
	}
	if per, _, _, err = loop(labCalls, labBudget, get); err != nil {
		return err
	}
	l.set("vcache.get_us", us(per), "us")

	// naming: verification of a resolved delegation chain.
	chain, err := tb.w.NamingAuthority.ResolveChain(in.names[0])
	if err != nil {
		return err
	}
	root := tb.w.NamingAuthority.RootKey()
	verifyChain := func(int) error {
		_, err := naming.VerifyChain(chain, in.names[0], root, time.Now())
		return err
	}
	if per, _, _, err = loop(labCalls, labBudget, verifyChain); err != nil {
		return err
	}
	l.set("naming.verify_chain_us", us(per), "us")

	if in.noProbe {
		return nil
	}
	return updateProbe(cfg, tb, in.docs[0], l)
}

// updateProbe replicates the workload's first document to a Paris
// secondary and replays probeVersions one-element versions, open loop at
// one every probeStep, timing server.Update and the delta pull of each.
func updateProbe(cfg runConfig, tb *testbed, doc *document.Document, l *layers) error {
	owner := cfg.owners[updateKey]
	oid := globeid.FromPublicKey(owner.Public())
	icert, err := document.IssueCertificate(doc, oid, owner, updateEpoch, document.UniformTTL(time.Hour))
	if err != nil {
		return err
	}
	genesis := server.BundleFromDocument(oid, owner.Public(), doc, icert, nil)
	chain, err := buildChain(genesis, owner, updateEpoch, probeStep, time.Hour, probeVersions, cfg.seed)
	if err != nil {
		return err
	}
	primary := tb.w.Servers[primarySite]
	secondary, err := tb.w.StartServer(netsim.Paris, "srv-paris", nil, nil, serverLimits)
	if err != nil {
		return err
	}
	const owned = "owner:" + probeUpdateName
	for _, srv := range []*server.Server{primary, secondary} {
		if err := srv.Install(genesis, owned); err != nil {
			return err
		}
	}
	puller := server.NewPuller(secondary, oid, owned, tb.w.Addrs[primarySite], tb.w.DialFrom(netsim.Paris), time.Hour)
	defer puller.Stop()
	ctx := context.Background()
	var w writerStats
	start := time.Now()
	for cur := chain.cursor(); !cur.done(); {
		due := start.Add(cur.dueAt().Sub(updateEpoch))
		time.Sleep(time.Until(due))
		b := cur.next()
		if _, err := w.apply(ctx, due, b, primary, puller, owned); err != nil {
			return err
		}
	}
	l.writer(&w)
	return nil
}

// writerStats accumulates per-version costs of an open-loop writer.
type writerStats struct {
	updateMS, pullMS, lateMS, kb []float64
	fallbacks                    uint64
}

// apply installs b on the primary and pulls it to the secondary,
// recording the costs of a version that reached both. It reports whether
// the primary took the version.
func (w *writerStats) apply(ctx context.Context, due time.Time, b *server.Bundle, primary *server.Server, p *server.Puller, owner string) (bool, error) {
	start := time.Now()
	bytes0, fb0 := p.BytesDelta()+p.BytesFull(), p.DeltaFallbacks()
	if err := primary.Update(b, owner); err != nil {
		return false, fmt.Errorf("update to version %d: %w", b.Version, err)
	}
	updated := time.Now()
	pulled, err := p.CheckOnce(ctx)
	if err == nil && !pulled {
		err = fmt.Errorf("secondary did not pull version %d", b.Version)
	}
	if err != nil {
		return true, err
	}
	done := time.Now()
	w.lateMS = append(w.lateMS, ms(start.Sub(due)))
	w.updateMS = append(w.updateMS, ms(updated.Sub(start)))
	w.pullMS = append(w.pullMS, ms(done.Sub(updated)))
	w.kb = append(w.kb, float64(p.BytesDelta()+p.BytesFull()-bytes0)/1024)
	w.fallbacks += p.DeltaFallbacks() - fb0
	return true, nil
}
