package jsonscan

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"sync"
)

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// Number parses the JSON number starting at b[i] and returns it with the
// index just past it. It checks the number grammar while it gathers the
// digits, eight at a time where eight digits follow, into a mantissa m of
// at most 19 significant digits and a decimal exponent e. Then:
//   - when m < 2^53 and |e| <= 22, m and 10^|e| are both exact float64s,
//     so one multiply or divide is correctly rounded (Clinger 1990;
//     strconv takes the same exact path);
//   - otherwise Eisel–Lemire (Lemire 2021) rounds m·10^e from a 128-bit
//     approximation of 10^e, or declines when that approximation cannot
//     decide the rounding;
//   - a mantissa of more than 19 significant digits, and what Eisel–Lemire
//     declines, go to strconv.
//
// Each path is correctly rounded, so every result is the float64
// encoding/json would give, and the errors are strconv's where it errs.
func Number(b []byte, i int) (float64, int, error) {
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	if i >= len(b) || b[i] < '0' || b[i] > '9' {
		if i == start {
			return 0, i, fmt.Errorf("expected number at offset %d", i)
		}
		return 0, i, fmt.Errorf("invalid number at offset %d", start)
	}
	// mant gathers the significant digits while it has room for them;
	// whole turns false once a nonzero digit finds none. A zero that finds
	// none is exact all the same: in the integer part it scales by ten,
	// in the fraction it adds nothing.
	var mant uint64
	exp := 0
	whole := true
	if b[i] == '0' {
		i++
	} else {
		for {
			if mant < 1e11 && len(b)-i >= 8 {
				if v := binary.LittleEndian.Uint64(b[i:]); eightDigits(v) {
					mant = mant*1e8 + eightValue(v)
					i += 8
					continue
				}
			}
			if i >= len(b) || b[i] < '0' || b[i] > '9' {
				break
			}
			if mant < 1e18 {
				mant = mant*10 + uint64(b[i]-'0')
			} else {
				exp++
				whole = whole && b[i] == '0'
			}
			i++
		}
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return 0, i, fmt.Errorf("invalid number at offset %d", start)
		}
		for {
			if mant < 1e11 && len(b)-i >= 8 {
				if v := binary.LittleEndian.Uint64(b[i:]); eightDigits(v) {
					mant = mant*1e8 + eightValue(v)
					exp -= 8
					i += 8
					continue
				}
			}
			if i >= len(b) || b[i] < '0' || b[i] > '9' {
				break
			}
			if mant < 1e18 {
				mant = mant*10 + uint64(b[i]-'0')
				exp--
			} else {
				whole = whole && b[i] == '0'
			}
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return 0, i, fmt.Errorf("invalid number at offset %d", start)
		}
		e := 0
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
			if e < 1e4 { // far outside every table already
				e = e*10 + int(b[i]-'0')
			}
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if whole {
		if mant < 1<<53 && exp >= -22 && exp <= 22 {
			f := float64(mant)
			if exp < 0 {
				f /= pow10[-exp]
			} else {
				f *= pow10[exp]
			}
			if neg {
				f = -f
			}
			return f, i, nil
		}
		if f, ok := eiselLemire(mant, exp, neg); ok {
			return f, i, nil
		}
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		return 0, i, err
	}
	return f, i, nil
}

// eightDigits reports whether the eight bytes of v, read little-endian,
// are all ASCII digits: adding 0x46 sets a byte's top bit from ':' up,
// subtracting 0x30 below '0', and a carry or borrow between bytes comes
// only from a byte that is already caught.
func eightDigits(v uint64) bool {
	return ((v+0x4646464646464646)|(v-0x3030303030303030))&0x8080808080808080 == 0
}

// eightValue returns the number the eight ASCII digits of v spell, the
// first digit in the low byte: adjacent digits pair into two-digit
// values, then the pairs into four-digit ones, then the halves, by three
// multiplies instead of eight.
func eightValue(v uint64) uint64 {
	v -= 0x3030303030303030
	v = v*10 + v>>8
	return ((v&0x000000FF000000FF)*(100+1000000<<32) + (v>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
}

// The 128-bit table covers 10^minExp10 through 10^maxExp10: below it
// every 19-digit mantissa underflows to zero, above it every mantissa
// overflows.
const (
	minExp10 = -348
	maxExp10 = 347
)

// powersOfTen returns, for each e in [minExp10, maxExp10], the 128 most
// significant bits of 10^e, rounded down, as {hi, lo}: 10^e lies in
// [M, M+1)·2^(⌊e·log2 10⌋-127) for that 128-bit M, whose top bit is set.
// It is built once, on first use, from math/big (696 entries, 11 KB).
var powersOfTen = sync.OnceValue(func() *[maxExp10 - minExp10 + 1][2]uint64 {
	var t [maxExp10 - minExp10 + 1][2]uint64
	p, m := big.NewInt(1), new(big.Int) // p = 10^|e|
	mask := new(big.Int).SetUint64(math.MaxUint64)
	for e := 0; e <= -minExp10; e++ {
		if e > 0 {
			p.Mul(p, big.NewInt(10))
		}
		if e <= maxExp10 {
			if s := p.BitLen() - 128; s > 0 {
				m.Rsh(p, uint(s))
			} else {
				m.Lsh(p, uint(-s))
			}
			t[e-minExp10] = split128(m, mask)
		}
		if e > 0 {
			// 2^(127+L) / 10^e, L its bit length, lies in [2^127, 2^128):
			// 10^e is not a power of two.
			m.Lsh(big.NewInt(1), uint(127+p.BitLen()))
			m.Quo(m, p)
			t[-e-minExp10] = split128(m, mask)
		}
	}
	return &t
})

// split128 returns a 128-bit m as {hi, lo}.
func split128(m, mask *big.Int) [2]uint64 {
	lo := new(big.Int).And(m, mask).Uint64()
	hi := new(big.Int).Rsh(m, 64).Uint64()
	return [2]uint64{hi, lo}
}

// eiselLemire returns the float64 nearest to ±man·10^exp10, or false when
// the 128-bit product cannot decide the rounding, the exponent is out of
// the table's range, or the result is subnormal, infinite or out of range.
// The steps follow Lemire, "Number Parsing at a Gigabyte per Second"
// (2021), in the form Go's strconv gives them.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if exp10 < minExp10 || exp10 > maxExp10 {
		return 0, false
	}
	pow := &powersOfTen()[exp10-minExp10]

	// Normalise man so its top bit is set; 217706/2^16 is log2 10 to well
	// within the table's range, so the floor below is ⌊exp10·log2 10⌋.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	retExp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)

	// The high 128 bits of man·10^exp10 from the table's high word; the
	// true product is at most man above it. Only when that can carry into
	// the bits that decide the rounding is the low word needed, and if
	// even then it can, decline.
	xHi, xLo := bits.Mul64(man, pow[0])
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[1])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Keep 54 bits: the 53 of the result and one to round by.
	msb := xHi >> 63
	mant := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Exactly halfway as far as the product shows: the dropped bits may
	// tip it either way.
	if xLo == 0 && xHi&0x1FF == 0 && mant&3 == 1 {
		return 0, false
	}

	// Round half up to 53 bits; a carry out adds to the exponent.
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		retExp2++
	}
	// A biased exponent of 0 (subnormal) or from 0x7FF (infinite) declines.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	r := retExp2<<52 | mant&(1<<52-1)
	if neg {
		r |= 1 << 63
	}
	return math.Float64frombits(r), true
}
