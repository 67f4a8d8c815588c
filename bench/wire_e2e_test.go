//go:build e2e

package main

import "testing"

// A short run of each wire workload against the real binaries: every
// output check holds and every metric is measured. Run with
//
//	go test -tags e2e -run TestWireSmoke ./bench
func TestWireSmoke(t *testing.T) {
	s, err := newSite()
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if err := s.build(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"feed-wire", "query-wire", "fleet-router"} {
		for _, trace := range []bool{false, true} {
			rep, err := runWorkload(s, options{workload: name, seed: 1, seconds: 2, trace: trace})
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, trace, err)
			}
			if rep.failed != 0 {
				t.Errorf("%s (trace %v): %d of %d operations failed: %v", name, trace, rep.failed, rep.attempted, rep.problems)
			}
		}
	}
}
