package jsonscan

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestParseNumberMatchesStrconv compares the number routine with
// strconv.ParseFloat on the cases either side of each path's limits: the
// exact path's, Eisel–Lemire's and the 19-digit mantissa's.
func TestParseNumberMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cases := []string{
		"0", "-0", "1", "-1", "0.1", "0.225", "1e22", "1e23", "1e-22", "1e-23",
		"9007199254740991", "9007199254740992", "9007199254740993", "123456789012345678901234567890",
		"0.30000000000000004", "2.2250738585072014e-308", "4.9e-324", "1.7976931348623157e308",
		"1e400", "-1e400", "1e-400", "0e999999", "0.000000000000000000000000001", "100000000000000000000000",
		"1.5E+3", "2.5e-3",
		// Halfway between two float64s, exactly and as near as 17 to 19
		// digits get, either side of 2^53 and 2^54.
		"9007199254740993", "9007199254740995", "18014398509481986", "18014398509481990",
		"9007199254740993.0", "900719925474099.3e1", "9.007199254740993e15",
		"9007199254740992.5", "9007199254740993.5", "90071992547409925", "90071992547409935",
		"900719925474099250", "900719925474099350", "9007199254740992999", "9007199254740993001",
		"9007199254740991", "90071992547409910", "900719925474099100", "9007199254740991000",
		// 19- and 20-digit mantissas, the largest 19 that fit and past them.
		"9999999999999999999", "18446744073709551615", "18446744073709551616", "12345678901234567890",
		"1234567890123456789e-10", "1234567890123456789012e-3", "0.1234567890123456789",
		"0.12345678901234567891", "10000000000000000000", "10000000000000000000.0000",
		"1000000000000000000000000000000e-30", "99999999999999999999e-20",
		// Subnormals and the float64 extremes.
		"5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324", "4.9406564584124654e-324",
		"2.225073858507201e-308", "2.2250738585072011e-308", "2.2250738585072012e-308",
		"1.7976931348623158e308", "1.7976931348623159e308", "-4.9e-324",
		// The ends of the 128-bit table and just past them.
		"1e-348", "1e-349", "1e347", "1e348", "1234567890123456789e-348", "1234567890123456789e-349",
		"1e-325", "1e-326", "0.0000001e-340", "1e308", "1e309", "12e307", "-0.0", "-0e5", "-0.000e-400",
	}
	for range 2000 {
		v := math.Float64frombits(rng.Uint64())
		if !math.IsInf(v, 0) && !math.IsNaN(v) {
			cases = append(cases, strconv.FormatFloat(v, 'g', -1, 64), strconv.FormatFloat(v, 'e', 18, 64))
		}
		cases = append(cases, strconv.FormatFloat(rng.Float64(), 'f', -1, 64))
		// A random 17–19-digit mantissa at a random exponent.
		m := rng.Uint64() % 1e19
		cases = append(cases, strconv.FormatUint(m, 10)+"e"+strconv.Itoa(rng.Intn(700)-350))
	}
	for _, c := range cases {
		want, wantErr := strconv.ParseFloat(c, 64)
		got, end, err := Number([]byte(c), 0)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s: error %v, strconv %v", c, err, wantErr)
		}
		if err != nil {
			continue
		}
		if end != len(c) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: %v (end %d), strconv %v", c, got, end, want)
		}
	}
	for _, bad := range []string{"-", "01", "1.", ".5", "1e", "1e+", "+1", "-x", "1.e5"} {
		if _, end, err := Number([]byte(bad), 0); err == nil && end == len(bad) {
			t.Fatalf("%q parsed as a whole JSON number", bad)
		}
	}
}

// TestEiselLemireNeighbours runs Eisel–Lemire alone on every mantissa
// within 200 of 2^53 and 2^54 and at each power of ten in the table: what
// it does not decline must be strconv's value.
func TestEiselLemireNeighbours(t *testing.T) {
	declined, normal := 0, 0
	for _, c := range []uint64{1 << 53, 1 << 54, 1e17, 1e18, 9999999999999999999} {
		for m := c - 200; m <= c+200 && m >= c-200; m++ {
			for _, e := range []int{minExp10, -300, -22, -1, 0, 1, 5, 22, 23, 200, maxExp10} {
				s := strconv.FormatUint(m, 10) + "e" + strconv.Itoa(e)
				want, err := strconv.ParseFloat(s, 64)
				got, ok := eiselLemire(m, e, false)
				if err == nil && math.Abs(want) >= 0x1p-1022 {
					normal++
					if !ok {
						declined++
					}
				}
				if !ok {
					continue
				}
				if err != nil || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: Eisel–Lemire %v, strconv %v (%v)", s, got, want, err)
				}
			}
		}
	}
	// Only exact halfway cases may decline among normal results.
	if declined*20 > normal {
		t.Errorf("Eisel–Lemire declined %d of %d normal cases", declined, normal)
	}
}

// TestPowersOfTenTable checks the 128-bit table against 10^e computed
// apart: each entry M must satisfy M ≤ 10^e·2^k < M+1 with M's top bit
// set.
func TestPowersOfTenTable(t *testing.T) {
	tab := powersOfTen()
	for _, e := range []int{minExp10, -300, -28, -27, -1, 0, 1, 27, 28, 55, 56, 300, maxExp10} {
		hi, lo := tab[e-minExp10][0], tab[e-minExp10][1]
		if hi>>63 != 1 {
			t.Fatalf("10^%d: top bit clear in %#x", e, hi)
		}
		m := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
		m.Or(m, new(big.Int).SetUint64(lo))
		// ten = 10^e as a fraction; scaled = ten·2^k with k putting it in
		// [2^127, 2^128).
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		ten := new(big.Rat).SetInt(p)
		if e < 0 {
			ten.Inv(ten)
		}
		scaled := new(big.Rat).Set(ten)
		two := new(big.Rat).SetInt64(2)
		lowEnd := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 127))
		for scaled.Cmp(lowEnd) < 0 {
			scaled.Mul(scaled, two)
		}
		highEnd := new(big.Rat).Mul(lowEnd, two)
		half := new(big.Rat).SetFrac64(1, 2)
		for scaled.Cmp(highEnd) >= 0 {
			scaled.Mul(scaled, half)
		}
		mr := new(big.Rat).SetInt(m)
		next := new(big.Rat).Add(mr, new(big.Rat).SetInt64(1))
		if mr.Cmp(scaled) > 0 || scaled.Cmp(next) >= 0 {
			t.Fatalf("10^%d: entry %s, scaled power %s", e, m, scaled.FloatString(3))
		}
	}
}

// TestEightDigits checks the SWAR digit test and value on every position
// of a non-digit and on random digit strings.
func TestEightDigits(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for range 10000 {
		var buf [8]byte
		for j := range buf {
			buf[j] = byte('0' + rng.Intn(10))
		}
		want := true
		if rng.Intn(2) == 0 {
			buf[rng.Intn(8)] = byte(rng.Intn(256))
			want = strings.Trim(string(buf[:]), "0123456789") == ""
		}
		v := binary.LittleEndian.Uint64(buf[:])
		if got := eightDigits(v); got != want {
			t.Fatalf("%q: eightDigits %v", buf, got)
		}
		if want {
			n, _ := strconv.ParseUint(string(buf[:]), 10, 64)
			if got := eightValue(v); got != n {
				t.Fatalf("%q: eightValue %d", buf, got)
			}
		}
	}
}

// jsonNumber matches the longest JSON number at the start of a string;
// the groups are the fraction and the exponent.
var jsonNumber = regexp.MustCompile(`^-?(?:0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`)

// FuzzParseNumber holds the number routine to strconv on arbitrary bytes.
// Where the bytes start with a JSON number, Number must end where it ends
// and give strconv's bits for it, or fail where strconv fails. Where they
// do not — no number at all, or a '.' or an exponent mark left without
// its digits — Number must fail.
func FuzzParseNumber(f *testing.F) {
	for _, seed := range []string{
		"0", "-0", "1.5e3,", "9007199254740993", "18446744073709551616", "1e-348", "1e348",
		"4.9e-324", "1.e5", "01", "-", "1e", "0.12345678901234567890123", "12345678x", "1]",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, end, err := Number(b, 0)
		m := jsonNumber.FindSubmatchIndex(b)
		if m == nil {
			if err == nil {
				t.Fatalf("%q: no JSON number, Number gives %v (end %d)", b, got, end)
			}
			return
		}
		n := m[1]
		hasFrac, hasExp := m[2] >= 0, m[4] >= 0
		dangling := n < len(b) && ((b[n] == '.' && !hasFrac && !hasExp) || ((b[n] == 'e' || b[n] == 'E') && !hasExp))
		if dangling {
			if err == nil {
				t.Fatalf("%q: dangling %q after %q, Number gives %v (end %d)", b, b[n], b[:n], got, end)
			}
			return
		}
		want, wantErr := strconv.ParseFloat(string(b[:n]), 64)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%q: Number error %v, strconv %v", b[:n], err, wantErr)
		}
		if err == nil && (end != n || math.Float64bits(got) != math.Float64bits(want)) {
			t.Fatalf("%q: Number %v (end %d), strconv %v (end %d)", b, got, end, want, n)
		}
	})
}

// BenchmarkNumber parses the 17-digit numbers encoding/json prints for
// random float64s, the bulk of a monitor dataset.
func BenchmarkNumber(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var nums [][]byte
	for range 1024 {
		nums = append(nums, []byte(strconv.FormatFloat(rng.NormFloat64(), 'g', -1, 64)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Number(nums[i%len(nums)], 0); err != nil {
			b.Fatal(err)
		}
	}
}
