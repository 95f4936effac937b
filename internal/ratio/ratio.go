// Package ratio implements exact rational arithmetic on int64 numerators
// and denominators. Injection rates such as ρ = (k−1)/(n−1) and the
// leaky-bucket credit β + ρ·t must be tracked exactly over millions of
// rounds; floating point drifts, so the adversary framework and all
// thresholds use this package instead.
package ratio

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Rat is an exact rational number. The zero value is 0/1. Rats are always
// stored reduced, with a positive denominator.
type Rat struct {
	n, d int64
}

// New returns the reduced rational n/d. It panics if d == 0.
func New(n, d int64) Rat {
	if d == 0 {
		panic("ratio: zero denominator")
	}
	if d < 0 {
		n, d = -n, -d
	}
	g := gcd(abs(n), d)
	if g > 1 {
		n /= g
		d /= g
	}
	return Rat{n, d}
}

// FromInt returns the rational x/1.
func FromInt(x int64) Rat { return Rat{x, 1} }

// Zero is the rational 0.
func Zero() Rat { return Rat{0, 1} }

// One is the rational 1.
func One() Rat { return Rat{1, 1} }

// Num returns the reduced numerator (sign-carrying).
func (r Rat) Num() int64 { return r.n }

// Den returns the reduced denominator (always positive; 1 for the zero
// value).
func (r Rat) Den() int64 {
	if r.d == 0 {
		return 1
	}
	return r.d
}

func (r Rat) norm() Rat {
	if r.d == 0 {
		return Rat{r.n, 1}
	}
	return r
}

// Add returns r + o.
func (r Rat) Add(o Rat) Rat {
	r, o = r.norm(), o.norm()
	g := gcd(r.d, o.d)
	ld := r.d / g
	return New(mustMul(r.n, o.d/g)+mustMul(o.n, ld), mustMul(ld, o.d))
}

// Sub returns r − o.
func (r Rat) Sub(o Rat) Rat { return r.Add(o.Neg()) }

// Neg returns −r.
func (r Rat) Neg() Rat { r = r.norm(); return Rat{-r.n, r.d} }

// Mul returns r × o.
func (r Rat) Mul(o Rat) Rat {
	r, o = r.norm(), o.norm()
	g1 := gcd(abs(r.n), o.d)
	g2 := gcd(abs(o.n), r.d)
	return New(mustMul(r.n/g1, o.n/g2), mustMul(r.d/g2, o.d/g1))
}

// MulInt returns r × x.
func (r Rat) MulInt(x int64) Rat { return r.Mul(FromInt(x)) }

// Div returns r ÷ o. It panics if o is zero.
func (r Rat) Div(o Rat) Rat {
	o = o.norm()
	if o.n == 0 {
		panic("ratio: division by zero")
	}
	return r.Mul(Rat{o.d, o.n}.canon())
}

func (r Rat) canon() Rat {
	if r.d < 0 {
		return Rat{-r.n, -r.d}
	}
	return r
}

// Cmp compares r and o, returning −1, 0, or +1.
func (r Rat) Cmp(o Rat) int {
	d := r.Sub(o)
	switch {
	case d.n < 0:
		return -1
	case d.n > 0:
		return 1
	default:
		return 0
	}
}

// Less reports r < o.
func (r Rat) Less(o Rat) bool { return r.Cmp(o) < 0 }

// Leq reports r ≤ o.
func (r Rat) Leq(o Rat) bool { return r.Cmp(o) <= 0 }

// IsZero reports whether r == 0.
func (r Rat) IsZero() bool { return r.norm().n == 0 }

// Sign returns −1, 0, or +1.
func (r Rat) Sign() int {
	switch n := r.norm().n; {
	case n < 0:
		return -1
	case n > 0:
		return 1
	default:
		return 0
	}
}

// Floor returns ⌊r⌋ as an integer.
func (r Rat) Floor() int64 {
	r = r.norm()
	q := r.n / r.d
	if r.n%r.d != 0 && r.n < 0 {
		q--
	}
	return q
}

// Ceil returns ⌈r⌉ as an integer.
func (r Rat) Ceil() int64 {
	r = r.norm()
	q := r.n / r.d
	if r.n%r.d != 0 && r.n > 0 {
		q++
	}
	return q
}

// Min returns the smaller of r and o.
func (r Rat) Min(o Rat) Rat {
	if r.Leq(o) {
		return r.norm()
	}
	return o.norm()
}

// Float64 returns the nearest float64 (for reporting only).
func (r Rat) Float64() float64 {
	r = r.norm()
	return float64(r.n) / float64(r.d)
}

// ParseFrac parses "p/q" or an integer p (q = 1) into an unreduced
// fraction, the syntax every CLI rate flag accepts. A denominator must
// be positive: "1/0" is an error, not a rate of 1.
func ParseFrac(s string) (num, den int64, err error) {
	p, q, frac := strings.Cut(s, "/")
	if num, err = strconv.ParseInt(p, 10, 64); err != nil {
		return 0, 0, fmt.Errorf("bad fraction %q: %v", s, err)
	}
	if !frac {
		return num, 1, nil
	}
	if den, err = strconv.ParseInt(q, 10, 64); err != nil {
		return 0, 0, fmt.Errorf("bad fraction %q: %v", s, err)
	}
	if den <= 0 {
		return 0, 0, fmt.Errorf("bad fraction %q: denominator must be positive", s)
	}
	return num, den, nil
}

func (r Rat) String() string {
	r = r.norm()
	if r.d == 1 {
		return fmt.Sprintf("%d", r.n)
	}
	return fmt.Sprintf("%d/%d", r.n, r.d)
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

// mustMul multiplies with an overflow check; rationals in this simulator
// stay far below the int64 range, so overflow indicates a bug.
func mustMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	p := a * b
	if p/b != a || (a == math.MinInt64 && b == -1) {
		panic(fmt.Sprintf("ratio: int64 overflow multiplying %d × %d", a, b))
	}
	return p
}
