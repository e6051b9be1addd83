package main

import (
	"context"
	"testing"

	"wavepipe/client"
)

// TestServicePass runs one pass of the service workload through two
// concurrent clients and checks every job came back whole.
func TestServicePass(t *testing.T) {
	base := make([]Deck, len(svcTopologies))
	fresh := make([][]Deck, len(svcTopologies))
	for k, top := range svcTopologies {
		for v := 0; v <= freshVariants; v++ {
			d, err := generate(top, 7, v)
			if err != nil {
				t.Fatal(err)
			}
			if v == 0 {
				base[k] = d
			} else {
				fresh[k] = append(fresh[k], d)
			}
		}
	}
	ls, err := startService(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.stop()
	clients := make([]*client.Client, 2)
	for i := range clients {
		c, err := client.New(ls.url, nil)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	outs, _ := runPass(context.Background(), clients, passJobs(7, 0, base, fresh), 2)
	for _, o := range outs {
		if o.err != nil || o.res == nil || !reachesTStop(o.res.W, o.job.deck.TStop) {
			t.Errorf("%s job %s: err %v", o.job.deck.Name, o.id, o.err)
		}
		if o.first <= 0 || o.latency < o.first {
			t.Errorf("%s job %s: first point at %g s, result at %g s", o.job.deck.Name, o.id, o.first, o.latency)
		}
	}
}
