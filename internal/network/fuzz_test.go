package network

import (
	"errors"
	"testing"

	"earmac/internal/registry"
)

// FuzzCompileLinks feeds arbitrary custom link lists over small channel
// counts through Validate and Compile. Neither may panic. Validate
// rejects exactly the malformed lists (a link out of range, a self-loop,
// a duplicate) and Compile on top of that the disconnected graphs, both
// with ErrBadTopology. Every accepted spec must route every channel
// pair: each next hop is adjacent, its gateway exists, and the path
// reaches its destination in at most C-1 hops.
func FuzzCompileLinks(f *testing.F) {
	f.Add(uint8(4), uint8(3), []byte{0, 1, 1, 2, 2, 3})
	f.Add(uint8(4), uint8(2), []byte{0, 1, 2, 3})             // disconnected
	f.Add(uint8(3), uint8(2), []byte{0, 1, 1, 0})             // duplicate
	f.Add(uint8(3), uint8(2), []byte{1, 1})                   // self-loop
	f.Add(uint8(3), uint8(2), []byte{0, 5, 255, 1})           // out of range
	f.Add(uint8(5), uint8(2), []byte{0, 1, 0, 2, 0, 3, 0, 4}) // star, shared gateways
	f.Add(uint8(1), uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, c, n uint8, raw []byte) {
		s := Spec{Kind: Custom, Channels: int(c % 24), N: int(n % 4)}
		if len(raw) > 128 {
			raw = raw[:128]
		}
		for i := 0; i+1 < len(raw); i += 2 {
			// Signed and wrapped past C, so out-of-range links occur.
			s.Links = append(s.Links, [2]int{int(int8(raw[i])) % (s.Channels + 2), int(int8(raw[i+1])) % (s.Channels + 2)})
		}

		adj := make(map[[2]int]bool)
		wellFormed := len(s.Links) > 0 && s.Channels >= 2 && s.N >= 2
		for _, l := range s.Links {
			a, b := min(l[0], l[1]), max(l[0], l[1])
			if a < 0 || b >= s.Channels || a == b || adj[[2]int{a, b}] {
				wellFormed = false
				break
			}
			adj[[2]int{a, b}] = true
		}
		if err := s.Validate(); (err == nil) != wellFormed {
			t.Fatalf("Validate(%+v) = %v, well-formed %v", s, err, wellFormed)
		}

		topo, err := Compile(s)
		if err != nil {
			if !errors.Is(err, registry.ErrBadTopology) {
				t.Fatalf("Compile(%+v): %v does not wrap ErrBadTopology", s, err)
			}
			if wellFormed && connected(s.Channels, s.Links) {
				t.Fatalf("Compile rejected a connected well-formed spec %+v: %v", s, err)
			}
			return
		}
		if !wellFormed || !connected(s.Channels, s.Links) {
			t.Fatalf("Compile accepted %+v", s)
		}
		for from := 0; from < s.Channels; from++ {
			for to := 0; to < s.Channels; to++ {
				at, hops := from, 0
				for at != to {
					next := topo.NextHop(at, to)
					if !adj[[2]int{min(at, next), max(at, next)}] {
						t.Fatalf("%+v: next hop %d→%d toward %d is not a link", s, at, next, to)
					}
					if g := topo.Gateway(at, next); g < 0 || g >= s.N {
						t.Fatalf("%+v: gateway %d of %d toward %d outside [0, %d)", s, g, at, next, s.N)
					}
					at, hops = next, hops+1
					if hops >= s.Channels {
						t.Fatalf("%+v: no route %d→%d within %d hops", s, from, to, s.Channels-1)
					}
				}
				if topo.Hops(from, to) != hops {
					t.Fatalf("%+v: Hops(%d, %d) = %d, walked %d", s, from, to, topo.Hops(from, to), hops)
				}
			}
		}
	})
}

// connected reports whether the links join all channels into one
// component (union-find over in-range links).
func connected(channels int, links [][2]int) bool {
	parent := make([]int, channels)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	parts := channels
	for _, l := range links {
		if l[0] < 0 || l[0] >= channels || l[1] < 0 || l[1] >= channels {
			continue
		}
		if a, b := find(l[0]), find(l[1]); a != b {
			parent[a] = b
			parts--
		}
	}
	return parts == 1
}
