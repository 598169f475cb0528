package main

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/server"
	"globedoc/internal/workload"
)

func series(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n      int
		q      float64
		want   float64
		enough bool
	}{
		{1000, 0.50, 500, true},
		{1000, 0.99, 990, true}, // exactly 10 samples beyond
		{999, 0.99, 990, false}, // 9 beyond
		{200, 0.95, 190, true},
		{199, 0.95, 190, false},
		{10, 0.5, 5, false},
		{1, 0.99, 1, false},
		{100, 1.0, 100, false},
	}
	for _, c := range cases {
		got, ok := percentile(series(c.n), c.q)
		if got != c.want || ok != c.enough {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.enough)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported enough samples")
	}
}

func TestTailPercentileNeedsSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantQ float64
	}{{5000, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {120, 0.90}, {40, 0.50}, {3, 0.50}} {
		q, v := tailPercentile(series(c.n))
		if q != c.wantQ {
			t.Errorf("tailPercentile(1..%d) used p%v, want p%v", c.n, 100*q, 100*c.wantQ)
		}
		if want, _ := percentile(series(c.n), q); v != want {
			t.Errorf("tailPercentile(1..%d) = %v, want %v", c.n, v, want)
		}
	}
}

func TestWindowsReportLeastDisturbedQuartile(t *testing.T) {
	values := []float64{5, 1, 4, 2, 3, 100, 6, 7}
	if got := leastDisturbed(values, false); got != 2 {
		t.Errorf("lower-is-better quartile = %v, want 2", got)
	}
	if got := leastDisturbed(values, true); got != 6 {
		t.Errorf("higher-is-better quartile = %v, want 6", got)
	}
	// Eight windows of 1..1000 ms; a stall shifts one of them up.
	var wins [][]float64
	for i := 0; i < 8; i++ {
		w := series(1000)
		if i == 3 {
			for j := range w {
				w[j] += 500
			}
		}
		wins = append(wins, w)
	}
	if v, ok := windowPercentile(wins, 0.99); v != 990 || !ok {
		t.Errorf("windowPercentile p99 = %v, %v; want 990, true", v, ok)
	}
	wins[5] = series(500)
	if _, ok := windowPercentile(wins, 0.99); ok {
		t.Error("a window with 5 samples beyond its p99 counted as enough")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func draws(next func() int, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = next()
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSeededStreamsRepeat(t *testing.T) {
	in7, in8 := browseCorpus(7), browseCorpus(8)
	a := draws(newBrowseStream(7, 0, in7.rank).next, 2000)
	if b := draws(newBrowseStream(7, 0, browseCorpus(7).rank).next, 2000); !equalInts(a, b) {
		t.Error("browse stream differs for the same seed and connection")
	}
	if b := draws(newBrowseStream(8, 0, in8.rank).next, 2000); equalInts(a, b) {
		t.Error("browse stream identical for different seeds")
	}
	if b := draws(newBrowseStream(7, 1, in7.rank).next, 2000); equalInts(a, b) {
		t.Error("browse stream identical for different connections")
	}
	// Seeds change which element holds a rank, never its size.
	for k := range in7.rank {
		if len(in7.elems[in7.rank[k]].data) != len(in8.elems[in8.rank[k]].data) {
			t.Fatalf("rank %d has different sizes for seeds 7 and 8", k)
		}
	}
	v := draws(newUniformStream(7, 0, 8).next, 500)
	if w := draws(newUniformStream(7, 0, 8).next, 500); !equalInts(v, w) {
		t.Error("visit order differs for the same seed")
	}
	if a, b := browseCorpus(3), browseCorpus(3); !bytes.Equal(a.elems[17].data, b.elems[17].data) || a.bytes != b.bytes {
		t.Error("browse corpus differs for the same seed")
	}
}

func TestZipfFavoursLowRanks(t *testing.T) {
	z := newZipf(330, 0.9)
	r := workload.NewRand(1)
	counts := make([]int, 330)
	for i := 0; i < 100000; i++ {
		counts[z.draw(r)]++
	}
	// P(rank 0) / P(rank 9) = 10^0.9 ~ 7.9.
	if counts[0] <= counts[1] || counts[1] <= counts[9] {
		t.Errorf("counts not decreasing: %d %d %d", counts[0], counts[1], counts[9])
	}
	if ratio := float64(counts[0]) / float64(counts[9]); ratio < 6 || ratio > 10 {
		t.Errorf("rank 0 / rank 9 = %.2f, want about 7.9", ratio)
	}
}

func TestUpdateChainRepeatsAndCycles(t *testing.T) {
	owner, err := keys.Generate(keys.Ed25519)
	if err != nil {
		t.Fatal(err)
	}
	oid := globeid.FromPublicKey(owner.Public())
	doc := workload.WideDoc(8, 64, 5)
	icert, err := document.IssueCertificate(doc, oid, owner, updateEpoch, document.UniformTTL(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	genesis := server.BundleFromDocument(oid, owner.Public(), doc, icert, nil)
	build := func(seed uint64) *updateChain {
		ch, err := buildChain(genesis, owner, updateEpoch, updateStep, time.Hour, 20, seed)
		if err != nil {
			t.Fatal(err)
		}
		return ch
	}
	replay := func(ch *updateChain) []*server.Bundle {
		var out []*server.Bundle
		for cur := ch.cursor(); !cur.done(); {
			out = append(out, cur.next())
		}
		return out
	}
	a, b, c := replay(build(9)), replay(build(9)), replay(build(10))
	changed := func(bundles []*server.Bundle, i int) string {
		prev := genesis.Elements
		if i > 0 {
			prev = bundles[i-1].Elements
		}
		var names []string
		for j, e := range bundles[i].Elements {
			if !bytes.Equal(e.Data, prev[j].Data) {
				names = append(names, e.Name)
			}
		}
		if len(names) != 1 {
			t.Fatalf("version %d changes %d elements, want 1", i, len(names))
		}
		return names[0]
	}
	seen := map[string]int{}
	differs := false
	for i := range a {
		if err := a[i].Validate(); err != nil {
			t.Fatalf("version %d: %v", i, err)
		}
		name := changed(a, i)
		if changed(b, i) != name || !bytes.Equal(a[i].Elements[0].Data, b[i].Elements[0].Data) {
			t.Fatalf("version %d differs for the same seed", i)
		}
		if changed(c, i) != name {
			differs = true
		}
		if last, ok := seen[name]; ok && i-last != 8 {
			t.Errorf("element %s changed at versions %d and %d, want one change per 8 versions", name, last, i)
		}
		seen[name] = i
		if want := updateEpoch.Add(time.Duration(i+1) * updateStep); !a[i].Cert.Issued.Equal(want) {
			t.Errorf("version %d issued %v, want %v", i, a[i].Cert.Issued, want)
		}
	}
	if !differs {
		t.Error("update order identical for different seeds")
	}
}

func TestUpdateChainFreshness(t *testing.T) {
	owner, err := keys.Generate(keys.Ed25519)
	if err != nil {
		t.Fatal(err)
	}
	oid := globeid.FromPublicKey(owner.Public())
	doc := workload.WideDoc(8, 64, 5)
	ttl := 3 * updateStep
	icert, err := document.IssueCertificate(doc, oid, owner, updateEpoch, document.UniformTTL(ttl))
	if err != nil {
		t.Fatal(err)
	}
	genesis := server.BundleFromDocument(oid, owner.Public(), doc, icert, nil)
	ch, err := buildChain(genesis, owner, updateEpoch, updateStep, ttl, 20, 9)
	if err != nil {
		t.Fatal(err)
	}
	at := func(pos int) time.Time { return updateEpoch.Add(time.Duration(pos) * updateStep) }
	// The element the first version rewrites changes again at positions
	// 9 and 17: its genesis bytes are current at [0, 1), the first
	// rewrite at [1, 9), the second at [9, 17).
	idx := ch.changes[0].idx
	name := genesis.Elements[idx].Name
	orig, first, second := genesis.Elements[idx].Data, ch.changes[0].data, ch.changes[8].data
	cases := []struct {
		what       string
		body       []byte
		start, end int
		want       bool
	}{
		{"genesis bytes at genesis", orig, 0, 0, true},
		{"genesis bytes at the last position its certificate is valid", orig, 3, 3, true},
		{"genesis bytes after its certificate lapsed", orig, 4, 4, false},
		{"first rewrite while current", first, 5, 5, true},
		{"first rewrite within ttl of being superseded", first, 11, 11, true},
		{"first rewrite after its certificate lapsed", first, 12, 12, false},
		{"second rewrite before it is issued", second, 7, 8, false},
		{"second rewrite issued during the read", second, 8, 9, true},
		{"bytes never published", bytes.Repeat([]byte{1}, len(orig)), 5, 5, false},
	}
	for _, c := range cases {
		if got := ch.fresh(name, c.body, at(c.start), at(c.end)); got != c.want {
			t.Errorf("%s (read over positions %d..%d): fresh = %v, want %v", c.what, c.start, c.end, got, c.want)
		}
	}
	// A certificate is valid up to and including its expiry instant.
	if lapsed := at(3).Add(time.Nanosecond); ch.fresh(name, orig, lapsed, lapsed) {
		t.Error("genesis bytes fresh a nanosecond after their certificate expired")
	}
	// Versions are backdated by ttl: a read that sampled the clock before
	// a version was issued still accepts that version's certificate.
	cur := ch.cursor()
	cur.next()
	v2 := cur.next().Cert
	for _, e := range v2.Entries {
		if err := e.CheckFreshness(at(2).Add(-ttl)); err != nil {
			t.Fatalf("version 2 at its backdated start: %v", err)
		}
		if err := e.CheckFreshness(at(2).Add(-ttl - time.Nanosecond)); err == nil {
			t.Fatal("version 2 valid before its backdated start")
		}
	}
}

// phaseOf runs a short meter phase that records reads and writes, of
// which the first readFails and writeFails fail.
func phaseOf(t *testing.T, reads, writes, readFails, writeFails int) phaseStats {
	t.Helper()
	m := startMeter(50*time.Millisecond, 1)
	failure := errors.New("refused")
	errIf := func(fails bool) error {
		if fails {
			return failure
		}
		return nil
	}
	for i := 0; i < reads || i < writes; i++ {
		if i < reads {
			m.read(time.Millisecond, errIf(i < readFails))
		}
		if i < writes {
			m.write(time.Millisecond, errIf(i < writeFails))
		}
	}
	return m.stats()
}

func TestVerdictRejectsFailures(t *testing.T) {
	if st := phaseOf(t, 20, 10, 0, 0); !verdict(st, true, 0) {
		t.Error("a clean phase with reads and writes is not correct")
	}
	// Every write refused: the reads still complete, but update reports
	// the writes' latencies and must not read 0 ms as a result.
	st := phaseOf(t, 20, 10, 0, 10)
	if verdict(st, true, 0) {
		t.Error("a phase whose writes all failed is correct")
	}
	if st.failed != 10 || len(st.writes) != 0 {
		t.Errorf("failed = %d, write latencies = %d; want 10 and 0", st.failed, len(st.writes))
	}
	if verdict(phaseOf(t, 20, 10, 1, 0), true, 0) {
		t.Error("a phase with one failed read is correct")
	}
	if verdict(phaseOf(t, 20, 10, 0, 1), true, 0) {
		t.Error("a phase with one failed write is correct")
	}
	if verdict(phaseOf(t, 20, 0, 20, 0), false, 0) {
		t.Error("a phase whose reads all failed is correct")
	}
	if verdict(phaseOf(t, 20, 0, 0, 0), true, 0) {
		t.Error("a write workload without writes is correct")
	}
	if verdict(phaseOf(t, 20, 0, 0, 0), false, 1) {
		t.Error("a phase with a mismatch is correct")
	}
	if !verdict(phaseOf(t, 20, 0, 0, 0), false, 0) {
		t.Error("a clean read phase is not correct")
	}
}

var sink []byte

// burn spends about d of CPU and allocates as it goes.
func burn(d time.Duration) {
	start := readUsage().cpu
	for readUsage().cpu-start < d {
		sink = make([]byte, 1<<20)
	}
}

func TestMeterBracketsOnlyThePhase(t *testing.T) {
	burn(200 * time.Millisecond)
	m := startMeter(300*time.Millisecond, 3)
	for m.running() {
		sink = make([]byte, 64<<10)
		time.Sleep(5 * time.Millisecond)
		m.read(time.Millisecond, nil)
	}
	st := m.stats()
	burn(200 * time.Millisecond)
	if st.ops < 10 {
		t.Fatalf("only %d operations in the phase", st.ops)
	}
	// Each operation allocates 64 KB; the megabytes allocated before the
	// phase must not show.
	if st.allocKBPerOp < 64 || st.allocKBPerOp > 96 {
		t.Errorf("alloc per op = %.1f KB, want about 64", st.allocKBPerOp)
	}
	// The phase sleeps; the 200 ms of CPU burnt before it would add
	// several milliseconds per operation if the bracket leaked.
	if st.cpuMsPerOp > 2 {
		t.Errorf("CPU per op = %.2f ms, want near zero", st.cpuMsPerOp)
	}
	if st.throughput < 50 || st.throughput > 250 {
		t.Errorf("throughput = %.1f/s for one op per ~5 ms", st.throughput)
	}
}
