package stream

import (
	"net/url"
	"testing"
)

// FuzzParseSweepQuery feeds arbitrary query strings and prefix bounds
// to the sweep parser: it must never panic, and every request it
// accepts must be a defaulted grid the validator accepts.
func FuzzParseSweepQuery(f *testing.F) {
	for _, raw := range []string{
		"",
		"tables=table2,table5&kmin=1&kmax=10&prefixes=1,2",
		"tables=%20table2%20,%20,&kmin=32&kmax=32",
		"kmin=0&kmax=0",
		"kmax=99999999999999999999",
		"prefixes=,,&scenario=stealth&scenarios=baseline,",
		"prefixes=1,x",
	} {
		f.Add(raw, 8)
	}
	f.Fuzz(func(t *testing.T, raw string, maxPrefix int) {
		q, _ := url.ParseQuery(raw) // keeps every pair that did parse
		req, err := ParseSweepQuery(q, SweepRequest{}, maxPrefix)
		if err != nil {
			return
		}
		if len(req.Tables) == 0 {
			t.Fatalf("ParseSweepQuery(%q) accepted a request without tables: %+v", raw, req)
		}
		if err := req.validate(maxPrefix); err != nil {
			t.Fatalf("ParseSweepQuery(%q, %d) accepted %+v, which the validator refuses: %v", raw, maxPrefix, req, err)
		}
	})
}
