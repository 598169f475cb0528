package location

import (
	"bytes"
	"context"
	"testing"

	"globedoc/internal/enc"
	"globedoc/internal/globeid"
)

// These tests pin the location service's two address encodings: the
// endpoint-only form inserts and deletes carry, and the metadata form
// (zone, weight) every lookup result carries.

func compatOID(b byte) globeid.OID {
	var oid globeid.OID
	for i := range oid {
		oid[i] = b
	}
	return oid
}

// TestContactAddressV1GoldenBytes pins the endpoint-only encoding inserts
// and deletes carry, regardless of what metadata the address holds.
func TestContactAddressV1GoldenBytes(t *testing.T) {
	a := ContactAddress{Address: "ams:1", Protocol: "globedoc", Zone: "europe", Weight: 300}
	w := enc.NewWriter(32)
	a.Marshal(w)
	want := []byte("\x05ams:1\x08globedoc")
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("endpoint bytes = %q, want %q", w.Bytes(), want)
	}
	r := enc.NewReader(want)
	got := UnmarshalContactAddress(r)
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if got.Address != "ams:1" || got.Protocol != "globedoc" || got.Zone != "" || got.Weight != 0 {
		t.Errorf("decoded %+v", got)
	}
}

// TestContactAddressExtGoldenBytes pins the metadata encoding lookup
// results carry.
func TestContactAddressExtGoldenBytes(t *testing.T) {
	a := ContactAddress{Address: "ams:1", Protocol: "globedoc", Zone: "europe", Weight: 300}
	w := enc.NewWriter(32)
	a.MarshalExt(w)
	want := []byte("\x05ams:1\x08globedoc\x06europe\xac\x02") // 300 = 0xac 0x02 uvarint
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("ext bytes = %q, want %q", w.Bytes(), want)
	}
	r := enc.NewReader(want)
	got := UnmarshalContactAddressExt(r)
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if got != a {
		t.Errorf("decoded %+v, want %+v", got, a)
	}
}

// TestLookupResultRejectsEndpointOnlyBytes proves the two encodings
// cannot be confused: the lookup-result decoder refuses addresses
// missing their metadata, and the insert decoder refuses an address that
// carries metadata, rather than either misreading the other.
func TestLookupResultRejectsEndpointOnlyBytes(t *testing.T) {
	a := ContactAddress{Address: "ams:1", Protocol: "globedoc", Zone: "europe", Weight: 3}
	w := enc.NewWriter(32)
	w.Uvarint(1) // rings
	w.Uvarint(1) // one address
	a.Marshal(w)
	if _, err := decodeLookupResult(w.Bytes()); err == nil {
		t.Fatal("lookup-result decoder accepted an endpoint-only address")
	}
	if _, err := decodeLookupResult(encodeLookupResult(LookupResult{Rings: 1, Addresses: []ContactAddress{a}})); err != nil {
		t.Fatalf("lookup-result round trip: %v", err)
	}

	w = enc.NewWriter(64)
	w.String("amsterdam-primary")
	oid := compatOID(0x21)
	w.Raw(oid[:])
	a.MarshalExt(w)
	if _, _, _, err := decodeSiteOIDAddr(w.Bytes()); err == nil {
		t.Fatal("insert decoder accepted an address carrying metadata")
	}
}

// TestZoneOfAndAutoFill covers the tree-side metadata semantics the
// service relies on.
func TestZoneOfAndAutoFill(t *testing.T) {
	tree, err := NewTree(PaperDomains())
	if err != nil {
		t.Fatal(err)
	}
	if z, ok := tree.ZoneOf("ithaca"); !ok || z != "northamerica" {
		t.Errorf("ZoneOf(ithaca) = %q, %v", z, ok)
	}
	if z, ok := tree.ZoneOf("amsterdam-secondary"); !ok || z != "europe" {
		t.Errorf("ZoneOf(amsterdam-secondary) = %q, %v", z, ok)
	}
	if _, ok := tree.ZoneOf("atlantis"); ok {
		t.Error("ZoneOf(atlantis) resolved")
	}

	oid := compatOID(0x51)
	// An insert carries no metadata: the tree fills the zone.
	if err := tree.Insert("ithaca", oid, ContactAddress{Address: "ithaca:objsrv", Protocol: "globedoc"}); err != nil {
		t.Fatal(err)
	}
	res, err := tree.Lookup(context.Background(), "ithaca", oid)
	if err != nil {
		t.Fatal(err)
	}
	if res.Addresses[0].Zone != "northamerica" {
		t.Errorf("Zone = %q, want auto-filled northamerica", res.Addresses[0].Zone)
	}

	// Re-inserting the same endpoint refreshes metadata in place: the
	// endpoint is the record's identity.
	if err := tree.Insert("ithaca", oid, ContactAddress{Address: "ithaca:objsrv", Protocol: "globedoc", Zone: "northamerica", Weight: 5}); err != nil {
		t.Fatal(err)
	}
	res, err = tree.Lookup(context.Background(), "ithaca", oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Addresses) != 1 {
		t.Fatalf("metadata refresh duplicated the record: %+v", res.Addresses)
	}
	if res.Addresses[0].Weight != 5 {
		t.Errorf("Weight = %d, want refreshed 5", res.Addresses[0].Weight)
	}
}
