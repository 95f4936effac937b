package main

import (
	"testing"

	"earmac/internal/ratio"
)

// TestParseRho pins the fraction syntax -rho and -jam-rho accept.
func TestParseRho(t *testing.T) {
	cases := []struct {
		in       string
		num, den int64
		wantErr  bool
	}{
		{"1/2", 1, 2, false},
		{"3/7", 3, 7, false},
		{"1", 1, 1, false},
		{"10", 10, 1, false},
		{"x/2", 0, 0, true},
		{"1/y", 0, 0, true},
		{"", 0, 0, true},
		{"1/0", 0, 0, true},
		{"1/-2", 0, 0, true},
		{"0", 0, 1, false},
	}
	for _, c := range cases {
		num, den, err := ratio.ParseFrac(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseFrac(%q): want error", c.in)
			}
			continue
		}
		if err != nil || num != c.num || den != c.den {
			t.Errorf("ParseFrac(%q) = %d/%d, %v; want %d/%d", c.in, num, den, err, c.num, c.den)
		}
	}
}
