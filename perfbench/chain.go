package main

import (
	"bytes"
	"math"
	"sync"
	"time"

	"globedoc/internal/cert"
	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/server"
	"globedoc/internal/workload"
)

// updateChain is an owner's pre-signed sequence of versions of one
// document: version i is issued step*(i+1) after genesis and rewrites
// exactly one element of its predecessor. Each version's certificate is
// valid from ttl before its issue time to ttl after it: the owner
// backdates NotBefore, as certificate issuers do to tolerate clock skew,
// because core.Client reads the clock once per fetch, and a read that
// began just before a version was installed checks that version's
// certificate against that earlier reading. Only what changes — the new
// element bytes and the signature — is kept per version; a chainCursor
// rebuilds the bundles in order, so the inputs add little for the
// garbage collector to scan while the workload runs.
type updateChain struct {
	genesis *server.Bundle
	t0      time.Time
	step    time.Duration
	ttl     time.Duration
	changes []chainChange
	// versions maps element name -> content hash -> that content and the
	// chain positions at which it was current, over every version
	// including genesis, so readers can check that a body is one a
	// replica may serve at the time of the read.
	versions map[string]map[[globeid.Size]byte]*content
}

// content is one element's bytes and the chain positions [from, to) at
// which they were current. Position 0 is genesis and position i+1 the
// version of changes[i]; to is math.MaxInt while the bytes are current
// at the end of the chain.
type content struct {
	data     []byte
	from, to int
}

type chainChange struct {
	idx  int // index of the rewritten element
	data []byte
	sig  []byte
}

func (ch *updateChain) issued(i int) time.Time { return ch.t0.Add(time.Duration(i+1) * ch.step) }

// position is the chain position whose version was issued last at t.
func (ch *updateChain) position(t time.Time) int { return int(t.Sub(ch.t0) / ch.step) }

// fresh reports whether body is a version of element name that a
// replica may serve to a read that started at start and ended at end on
// the owner's clock: current at some position from the oldest whose
// certificate is still valid at start up to the newest issued by end.
// Content whose certificates had all lapsed when the read began, and
// content not yet issued when it ended, are not.
func (ch *updateChain) fresh(name string, body []byte, start, end time.Time) bool {
	c, ok := ch.versions[name][globeid.HashElement(body)]
	if !ok || !bytes.Equal(body, c.data) {
		return false
	}
	// The oldest version still valid at start was issued at or after
	// start-ttl (certificates expire after, not at, their Expires).
	d := start.Add(-ch.ttl).Sub(ch.t0)
	oldest := int(d / ch.step)
	if d > 0 && d%ch.step != 0 {
		oldest++
	}
	return c.from <= ch.position(end) && c.to > oldest
}

// buildChain pre-signs n versions following genesis. The rewritten
// element cycles through a seeded permutation of the elements, so each
// element changes once every len(elements) versions and never twice in
// quick succession.
func buildChain(genesis *server.Bundle, owner *keys.KeyPair, t0 time.Time, step, ttl time.Duration, n int, seed uint64) (*updateChain, error) {
	r := workload.NewRand(streamSeed(seed, 7001))
	order := permutation(r, len(genesis.Elements))
	ch := &updateChain{
		genesis:  genesis,
		t0:       t0,
		step:     step,
		ttl:      ttl,
		changes:  make([]chainChange, n),
		versions: make(map[string]map[[globeid.Size]byte]*content),
	}
	current := make([]*content, len(genesis.Elements))
	remember := func(idx, pos int, data []byte) {
		name := genesis.Elements[idx].Name
		m := ch.versions[name]
		if m == nil {
			m = make(map[[globeid.Size]byte]*content)
			ch.versions[name] = m
		}
		if prev := current[idx]; prev != nil {
			prev.to = pos
		}
		current[idx] = &content{data: data, from: pos, to: math.MaxInt}
		m[globeid.HashElement(data)] = current[idx]
	}
	for idx, e := range genesis.Elements {
		remember(idx, 0, e.Data)
	}
	for i := range ch.changes {
		idx := order[i%len(order)]
		ch.changes[i] = chainChange{idx: idx, data: r.Bytes(len(genesis.Elements[idx].Data))}
		remember(idx, i+1, ch.changes[i].data)
	}

	// The RSA signatures dominate and are spread over two goroutines.
	certs := make([]*cert.IntegrityCertificate, n)
	cur := ch.cursor()
	for i := range certs {
		certs[i] = cur.next().Cert
	}
	const signers = 2
	errs := make([]error, signers)
	var wg sync.WaitGroup
	for s := 0; s < signers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; i < n; i += signers {
				if err := certs[i].Sign(owner); err != nil {
					errs[s] = err
					return
				}
				ch.changes[i].sig = certs[i].Sig
			}
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ch, nil
}

// chainCursor replays a chain's versions in order.
type chainCursor struct {
	ch      *updateChain
	pos     int
	elems   []document.Element
	entries []cert.ElementEntry
}

func (ch *updateChain) cursor() *chainCursor {
	return &chainCursor{ch: ch, elems: ch.genesis.Elements, entries: ch.genesis.Cert.Entries}
}

// done reports whether every version has been replayed.
func (c *chainCursor) done() bool { return c.pos >= len(c.ch.changes) }

// dueAt is when the next version is issued.
func (c *chainCursor) dueAt() time.Time { return c.ch.issued(c.pos) }

// next builds the next version's bundle, signed once buildChain has run.
func (c *chainCursor) next() *server.Bundle {
	ch, change := c.ch, c.ch.changes[c.pos]
	issued := ch.issued(c.pos)
	elems := append([]document.Element(nil), c.elems...)
	elems[change.idx].Data = change.data
	entries := append([]cert.ElementEntry(nil), c.entries...)
	for j := range entries {
		entries[j].NotBefore = issued.Add(-ch.ttl)
		entries[j].Expires = issued.Add(ch.ttl)
		if entries[j].Name == elems[change.idx].Name {
			entries[j].Hash = elems[change.idx].Hash()
		}
	}
	g := ch.genesis
	icert := &cert.IntegrityCertificate{
		ObjectID: g.OID,
		Version:  g.Version + uint64(c.pos+1),
		Issued:   issued,
		Entries:  entries,
		Sig:      change.sig,
	}
	c.pos++
	c.elems, c.entries = elems, entries
	return &server.Bundle{OID: g.OID, Key: g.Key, Elements: elems, Version: icert.Version, Cert: icert, NameCerts: g.NameCerts}
}
