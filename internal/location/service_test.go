package location_test

import (
	"context"
	"errors"
	"testing"

	"globedoc/internal/location"
	"globedoc/internal/netsim"
	"globedoc/internal/transport"
)

// startLocationService runs a location service on the simulated network
// and returns a client dialing it from fromHost.
func startLocationService(t *testing.T, n *netsim.Network, fromHost string) (*location.Client, *location.Tree) {
	t.Helper()
	tree, err := location.NewTree(location.PaperDomains())
	if err != nil {
		t.Fatal(err)
	}
	l, err := n.Listen(netsim.AmsterdamPrimary, "locsvc")
	if err != nil {
		t.Fatal(err)
	}
	svc := location.NewService(tree)
	svc.Start(l)
	t.Cleanup(svc.Close)
	client := location.NewClient(n.Dialer(fromHost, netsim.AmsterdamPrimary+":locsvc"))
	t.Cleanup(client.Close)
	return client, tree
}

func TestServiceInsertLookupDelete(t *testing.T) {
	n := netsim.PaperTestbed(0)
	defer n.Close()
	client, _ := startLocationService(t, n, netsim.Paris)

	oid := testOID(11)
	a := addr("amsterdam-primary:objsrv")
	if err := client.Insert(context.Background(), "amsterdam-primary", oid, a); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	res, err := client.Lookup(context.Background(), "paris", oid)
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if len(res.Addresses) != 1 || !res.Addresses[0].SameEndpoint(a) || res.Rings != 1 {
		t.Errorf("res = %+v", res)
	}
	// OpLookup2 carries the metadata the tree filled in at insert.
	if res.Addresses[0].Zone != "europe" {
		t.Errorf("res = %+v", res)
	}
	all, err := client.All(context.Background(), oid)
	if err != nil || len(all) != 1 {
		t.Errorf("All = %v, %v", all, err)
	}
	if err := client.Delete(context.Background(), "amsterdam-primary", oid, a); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := client.Lookup(context.Background(), "paris", oid); err == nil {
		t.Fatal("Lookup succeeded after Delete")
	}
}

func TestServiceErrorsCrossWire(t *testing.T) {
	n := netsim.PaperTestbed(0)
	defer n.Close()
	client, _ := startLocationService(t, n, netsim.Ithaca)

	if err := client.Insert(context.Background(), "atlantis", testOID(12), addr("x:y")); err == nil {
		t.Fatal("Insert to unknown site succeeded")
	} else {
		var remote *transport.RemoteError
		if !errors.As(err, &remote) {
			t.Fatalf("err = %T %v, want RemoteError", err, err)
		}
	}
	if _, err := client.Lookup(context.Background(), "paris", testOID(13)); err == nil {
		t.Fatal("Lookup of unrecorded OID succeeded")
	}
}

func TestClientImplementsResolver(t *testing.T) {
	var _ location.Resolver = (*location.Client)(nil)
	var _ location.Resolver = (*location.Tree)(nil)
}

func TestLookupCarriesZoneAndWeight(t *testing.T) {
	// One lookup operation carries the selector's metadata: the zone the
	// tree filled in for an endpoint-only insert, and a weight recorded
	// tree-side, both survive the loc.lookup and loc.all round trips.
	n := netsim.PaperTestbed(0)
	defer n.Close()
	client, tree := startLocationService(t, n, netsim.Paris)

	oid := testOID(13)
	if err := client.Insert(context.Background(), "ithaca", oid, addr("ithaca:objsrv")); err != nil {
		t.Fatal(err)
	}
	weighted := location.ContactAddress{Address: "amsterdam-primary:objsrv", Protocol: "globedoc", Weight: 7}
	if err := tree.Insert("amsterdam-primary", oid, weighted); err != nil {
		t.Fatal(err)
	}
	want := map[string]location.ContactAddress{
		"ithaca:objsrv":            {Address: "ithaca:objsrv", Protocol: "globedoc", Zone: "northamerica"},
		"amsterdam-primary:objsrv": {Address: "amsterdam-primary:objsrv", Protocol: "globedoc", Zone: "europe", Weight: 7},
	}
	res, err := client.Lookup(context.Background(), "paris", oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Addresses) == 0 {
		t.Fatal("loc.lookup returned no addresses")
	}
	all, err := client.All(context.Background(), oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(want) {
		t.Fatalf("loc.all returned %+v, want %d addresses", all, len(want))
	}
	for op, got := range map[string][]location.ContactAddress{"loc.lookup": res.Addresses, "loc.all": all} {
		for _, a := range got {
			if a != want[a.Address] {
				t.Errorf("%s: %+v, want %+v", op, a, want[a.Address])
			}
		}
	}
}
