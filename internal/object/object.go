// Package object implements the client-side half of Globe distributed
// shared objects for GlobeDoc (paper §2).
//
// A process accesses a GlobeDoc object by binding to it: (1) resolve the
// object name to an OID via the naming service, (2) resolve the OID to
// contact addresses via the location service, (3) install a local
// representative (LR) in the binding process's address space. The LR
// installed here is an object proxy — it forwards method invocations over
// the GlobeDoc wire protocol to a replica LR hosted on some object
// server. (Full replica LRs live in object servers; see internal/server.)
//
// This package deliberately performs NO security checks: it is the plain
// Globe machinery. The GlobeDoc security architecture (internal/core)
// wraps a bound Client with the self-certification, integrity and
// freshness pipeline of paper §3.
package object

import (
	"context"
	"errors"
	"fmt"

	"globedoc/internal/cert"
	"globedoc/internal/document"
	"globedoc/internal/enc"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/transport"
)

// Protocol is the protocol tag recorded in location-service contact
// addresses for GlobeDoc object servers.
const Protocol = "globedoc/1"

// Public wire operations served by every object replica. These are
// answerable to ANYONE — clients are anonymous in GlobeDoc's read path —
// and therefore return only signed or self-certifying data.
const (
	OpGetKey       = "obj.getkey"
	OpGetCert      = "obj.getcert"
	OpGetNameCerts = "obj.getnamecerts"
	OpGetElement   = "obj.getelement"
	// OpGetElements returns many elements in one exchange — the batched
	// fetch that lets a cold document ride one round trip over a
	// multiplexed connection. Elements it cannot carry are fetched by
	// per-element calls.
	OpGetElements  = "obj.getelements"
	OpListElements = "obj.list"
	OpVersion      = "obj.version"
	OpPing         = "obj.ping"
	// OpGetBundle returns the replica's complete state (elements +
	// certificates + key) in one call — the transfer unit of replica
	// consistency. Everything in it is public and verifiable.
	OpGetBundle = "obj.getbundle"
)

// Errors reported during binding and invocation.
var (
	ErrNoReplica  = errors.New("object: no reachable replica")
	ErrNotHosted  = errors.New("object: replica does not host this object")
	ErrBadPayload = errors.New("object: malformed payload")
)

// EncodeOIDRequest encodes a request carrying just an OID.
func EncodeOIDRequest(oid globeid.OID) []byte {
	w := enc.NewWriter(globeid.Size)
	w.Raw(oid[:])
	return w.Bytes()
}

// DecodeOIDRequest decodes a request carrying just an OID.
func DecodeOIDRequest(body []byte) (globeid.OID, error) {
	r := enc.NewReader(body)
	var oid globeid.OID
	copy(oid[:], r.Raw(globeid.Size))
	if err := r.Finish(); err != nil {
		return globeid.Zero, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	return oid, nil
}

// EncodeElementRequest encodes an (OID, element-name) request. fromSite
// is an advisory hint naming the client's site; the replication subobject
// on the server side uses it to detect flash crowds and place replicas
// near demand (paper §2). It carries no security weight — lying about it
// only mis-steers replica placement.
func EncodeElementRequest(oid globeid.OID, name, fromSite string) []byte {
	w := enc.NewWriter(globeid.Size + len(name) + len(fromSite) + 12)
	w.Raw(oid[:])
	w.String(name)
	w.String(fromSite)
	return w.Bytes()
}

// DecodeElementRequest decodes an (OID, element-name, site-hint) request.
func DecodeElementRequest(body []byte) (globeid.OID, string, string, error) {
	r := enc.NewReader(body)
	var oid globeid.OID
	copy(oid[:], r.Raw(globeid.Size))
	name := r.String()
	fromSite := r.String()
	if err := r.Finish(); err != nil {
		return globeid.Zero, "", "", fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	return oid, name, fromSite, nil
}

// EncodeElement encodes an element for the wire.
func EncodeElement(e document.Element) []byte {
	w := enc.NewWriter(32 + len(e.Name) + len(e.Data))
	w.String(e.Name)
	w.String(e.ContentType)
	w.BytesPrefixed(e.Data)
	return w.Bytes()
}

// DecodeElement decodes an element from the wire.
func DecodeElement(body []byte) (document.Element, error) {
	r := enc.NewReader(body)
	var e document.Element
	e.Name = r.String()
	e.ContentType = r.String()
	e.Data = append([]byte(nil), r.BytesPrefixed()...)
	if err := r.Finish(); err != nil {
		return document.Element{}, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	return e, nil
}

// maxBatchNames bounds how many element names one batch request may
// carry — a defence against a malicious peer inflating allocations.
const maxBatchNames = 1 << 16

// EncodeElementsRequest encodes an (OID, element-name list, site-hint)
// batch request.
func EncodeElementsRequest(oid globeid.OID, names []string, fromSite string) []byte {
	w := enc.NewWriter(globeid.Size + len(fromSite) + 16*(len(names)+1))
	w.Raw(oid[:])
	w.String(fromSite)
	w.Uvarint(uint64(len(names)))
	for _, n := range names {
		w.String(n)
	}
	return w.Bytes()
}

// DecodeElementsRequest decodes an (OID, element-name list, site-hint)
// batch request.
func DecodeElementsRequest(body []byte) (globeid.OID, []string, string, error) {
	r := enc.NewReader(body)
	var oid globeid.OID
	copy(oid[:], r.Raw(globeid.Size))
	fromSite := r.String()
	n := r.Uvarint()
	if n > maxBatchNames {
		return globeid.Zero, nil, "", fmt.Errorf("%w: implausible batch size %d", ErrBadPayload, n)
	}
	names := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		names = append(names, r.String())
	}
	if err := r.Finish(); err != nil {
		return globeid.Zero, nil, "", fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	return oid, names, fromSite, nil
}

// BatchWireItem is one slot of an encoded batch response: the element's
// already-encoded wire bytes, or the reason it could not be served.
// Servers build these from their precomputed per-element payloads.
type BatchWireItem struct {
	Name   string
	Wire   []byte // EncodeElement output; meaningful only when ErrMsg == ""
	ErrMsg string
}

// BatchItem is one decoded slot of a batch response. Err is non-nil
// when the server declined this element (unknown name, or the batch
// overflowed the frame budget); the caller fetches such elements
// individually.
type BatchItem struct {
	Name    string
	Element document.Element
	Err     error
}

// EncodeElementsResponse encodes a batch response. Items must be in
// request order — clients verify the echo.
func EncodeElementsResponse(items []BatchWireItem) []byte {
	size := 16
	for _, it := range items {
		size += 16 + len(it.Name) + len(it.Wire) + len(it.ErrMsg)
	}
	w := enc.NewWriter(size)
	w.Uvarint(uint64(len(items)))
	for _, it := range items {
		w.String(it.Name)
		if it.ErrMsg != "" {
			w.Byte(1)
			w.String(it.ErrMsg)
		} else {
			w.Byte(0)
			w.BytesPrefixed(it.Wire)
		}
	}
	return w.Bytes()
}

// DecodeElementsResponse decodes a batch response.
func DecodeElementsResponse(body []byte) ([]BatchItem, error) {
	r := enc.NewReader(body)
	n := r.Uvarint()
	if n > maxBatchNames {
		return nil, fmt.Errorf("%w: implausible batch size %d", ErrBadPayload, n)
	}
	items := make([]BatchItem, 0, n)
	for i := uint64(0); i < n; i++ {
		var it BatchItem
		it.Name = r.String()
		if r.Byte() != 0 {
			it.Err = fmt.Errorf("object: batch element %q: %s", it.Name, r.String())
		} else {
			e, err := DecodeElement(r.BytesPrefixed())
			if err != nil {
				return nil, err
			}
			it.Element = e
		}
		items = append(items, it)
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	return items, nil
}

// EncodeStringList encodes a list of strings.
func EncodeStringList(names []string) []byte {
	w := enc.NewWriter(16 * (len(names) + 1))
	w.Uvarint(uint64(len(names)))
	for _, n := range names {
		w.String(n)
	}
	return w.Bytes()
}

// DecodeStringList decodes a list of strings.
func DecodeStringList(body []byte) ([]string, error) {
	r := enc.NewReader(body)
	n := r.Uvarint()
	if n > 1<<20 {
		return nil, fmt.Errorf("%w: implausible list length %d", ErrBadPayload, n)
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.String())
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	return out, nil
}

// EncodeCertList encodes a list of name certificates.
func EncodeCertList(certs []*cert.NameCertificate) []byte {
	w := enc.NewWriter(256)
	w.Uvarint(uint64(len(certs)))
	for _, nc := range certs {
		w.BytesPrefixed(nc.Marshal())
	}
	return w.Bytes()
}

// DecodeCertList decodes a list of name certificates.
func DecodeCertList(body []byte) ([]*cert.NameCertificate, error) {
	r := enc.NewReader(body)
	n := r.Uvarint()
	if n > 1024 {
		return nil, fmt.Errorf("%w: implausible certificate count %d", ErrBadPayload, n)
	}
	out := make([]*cert.NameCertificate, 0, n)
	for i := uint64(0); i < n; i++ {
		nc, err := cert.UnmarshalNameCertificate(r.BytesPrefixed())
		if err != nil {
			return nil, err
		}
		out = append(out, nc)
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	return out, nil
}

// Client is an object-proxy local representative: the in-process stand-in
// for one GlobeDoc object, forwarding invocations to a replica at a fixed
// contact address.
type Client struct {
	oid  globeid.OID
	addr string
	c    *transport.Client
	// Site, when set, is sent as the placement hint on element reads.
	Site string
}

// NewClient creates a proxy LR for oid talking to the replica at addr,
// connecting with dial. The transport client is labelled with addr so
// every call attempt feeds the per-address replica-health tracker.
func NewClient(oid globeid.OID, addr string, dial transport.DialFunc) *Client {
	tc := transport.NewClient(dial)
	tc.Addr = addr
	return &Client{oid: oid, addr: addr, c: tc}
}

// OID returns the object the proxy is bound to.
func (c *Client) OID() globeid.OID { return c.oid }

// Addr returns the replica contact address the proxy forwards to.
func (c *Client) Addr() string { return c.addr }

// Transport exposes the underlying transport client (for byte counters).
func (c *Client) Transport() *transport.Client { return c.c }

// Close releases the connection.
func (c *Client) Close() { c.c.Close() }

// GetPublicKey fetches the object's public key from the replica. The
// caller MUST verify it against the self-certifying OID.
func (c *Client) GetPublicKey(ctx context.Context) (keys.PublicKey, error) {
	body, err := c.c.Call(ctx, OpGetKey, EncodeOIDRequest(c.oid))
	if err != nil {
		return keys.PublicKey{}, err
	}
	return keys.UnmarshalPublicKey(body)
}

// GetIntegrityCert fetches the object's integrity certificate. The caller
// MUST verify its signature under the (verified) object key.
func (c *Client) GetIntegrityCert(ctx context.Context) (*cert.IntegrityCertificate, error) {
	body, err := c.c.Call(ctx, OpGetCert, EncodeOIDRequest(c.oid))
	if err != nil {
		return nil, err
	}
	return cert.UnmarshalIntegrityCertificate(body)
}

// GetNameCerts fetches any CA-issued identity certificates the object can
// provide (the object's "security interface" of §3.1.2).
func (c *Client) GetNameCerts(ctx context.Context) ([]*cert.NameCertificate, error) {
	body, err := c.c.Call(ctx, OpGetNameCerts, EncodeOIDRequest(c.oid))
	if err != nil {
		return nil, err
	}
	return DecodeCertList(body)
}

// GetElement fetches one page element's raw content.
func (c *Client) GetElement(ctx context.Context, name string) (document.Element, error) {
	body, err := c.c.Call(ctx, OpGetElement, EncodeElementRequest(c.oid, name, c.Site))
	if err != nil {
		return document.Element{}, err
	}
	return DecodeElement(body)
}

// GetElements fetches many elements' raw content in one exchange,
// returned in request order. A per-item error means the server declined
// that element (unknown name, or the batch outgrew the frame budget);
// the caller fetches those individually. A server that predates the
// batch operation fails the whole call with a RemoteError.
func (c *Client) GetElements(ctx context.Context, names []string) ([]BatchItem, error) {
	body, err := c.c.Call(ctx, OpGetElements, EncodeElementsRequest(c.oid, names, c.Site))
	if err != nil {
		return nil, err
	}
	items, err := DecodeElementsResponse(body)
	if err != nil {
		return nil, err
	}
	if len(items) != len(names) {
		return nil, fmt.Errorf("%w: batch returned %d items for %d names", ErrBadPayload, len(items), len(names))
	}
	for i, it := range items {
		if it.Name != names[i] {
			return nil, fmt.Errorf("%w: batch item %d answers %q, want %q", ErrBadPayload, i, it.Name, names[i])
		}
	}
	return items, nil
}

// ListElements fetches the element names of the object.
func (c *Client) ListElements(ctx context.Context) ([]string, error) {
	body, err := c.c.Call(ctx, OpListElements, EncodeOIDRequest(c.oid))
	if err != nil {
		return nil, err
	}
	return DecodeStringList(body)
}

// Version fetches the replica's state version.
func (c *Client) Version(ctx context.Context) (uint64, error) {
	body, err := c.c.Call(ctx, OpVersion, EncodeOIDRequest(c.oid))
	if err != nil {
		return 0, err
	}
	r := enc.NewReader(body)
	v := r.Uvarint()
	if err := r.Finish(); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	return v, nil
}

// Ping checks liveness of the replica endpoint.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.c.Call(ctx, OpPing, nil)
	return err
}
