package wgen

import (
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// irBytes canonicalizes a generated function for byte-level
// comparison.
func irBytes(t *testing.T, p Profile, seed uint64) []byte {
	t.Helper()
	f, err := Generate(p, seed)
	if err != nil {
		t.Fatalf("Generate(%+v, %d): %v", p, seed, err)
	}
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// TestGenerateDeterministic pins the core contract: the same (profile,
// seed) point yields byte-identical IR on repeated calls, from
// concurrent goroutines, and across GOMAXPROCS settings.
func TestGenerateDeterministic(t *testing.T) {
	rng := NewRand(11)
	for iter := 0; iter < 25; iter++ {
		c := Class(iter % 3)
		p := RandomProfile(rng, c)
		seed := rng.next()
		want := irBytes(t, p, seed)

		if got := irBytes(t, p, seed); string(got) != string(want) {
			t.Fatalf("iter %d: repeated Generate differs for %s", iter, BenchmarkName(p, seed))
		}

		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			var wg sync.WaitGroup
			got := make([][]byte, 8)
			for i := range got {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					f := MustGenerate(p, seed)
					b, err := json.Marshal(f)
					if err != nil {
						panic(err)
					}
					got[i] = b
				}(i)
			}
			wg.Wait()
			runtime.GOMAXPROCS(prev)
			for i, b := range got {
				if string(b) != string(want) {
					t.Fatalf("iter %d: GOMAXPROCS=%d goroutine %d differs for %s",
						iter, procs, i, BenchmarkName(p, seed))
				}
			}
		}
	}
}

// TestQuantizedProfilesCoincide checks that profiles equal after
// quantization generate identical kernels — the property that makes
// basis-point names lossless.
func TestQuantizedProfilesCoincide(t *testing.T) {
	p := Profile{Class: Medium, Blocks: 3, Ops: 20, MemDensity: 0.25,
		MulDensity: 0.1, BranchDensity: 0.4, TakenBias: 0.5, TripCount: 16, Unroll: 1}
	q := p
	q.MemDensity += 1e-9 // below basis-point resolution
	q.TakenBias -= 1e-9
	if a, b := irBytes(t, p, 7), irBytes(t, q, 7); string(a) != string(b) {
		t.Fatal("sub-quantum density perturbation changed the generated kernel")
	}
	if BenchmarkName(p, 7) != BenchmarkName(q, 7) {
		t.Fatal("sub-quantum density perturbation changed the canonical name")
	}
}

// TestGeneratedKernelsValidate sweeps random profiles of every class
// and requires each generated function to pass ir.Validate and carry
// its canonical name.
func TestGeneratedKernelsValidate(t *testing.T) {
	rng := NewRand(23)
	for iter := 0; iter < 60; iter++ {
		p := RandomProfile(rng, Class(iter%3))
		seed := rng.next()
		f, err := Generate(p, seed)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("iter %d: generated IR invalid: %v", iter, err)
		}
		if f.Name != BenchmarkName(p, seed) {
			t.Fatalf("iter %d: function named %q, want canonical %q", iter, f.Name, BenchmarkName(p, seed))
		}
		if got := len(f.Blocks); got != p.Blocks {
			t.Fatalf("iter %d: %d blocks, profile wants %d", iter, got, p.Blocks)
		}
	}
}

// TestProfileValidateRejects covers the validation error paths with
// their messages.
func TestProfileValidateRejects(t *testing.T) {
	ok := Profile{Class: Low, Blocks: 2, Ops: 8, MemDensity: 0.2,
		BranchDensity: 0.5, TakenBias: 0.5, TripCount: 8}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Profile)
		want string
	}{
		{"class", func(p *Profile) { p.Class = 9 }, "ILP class 9 out of range"},
		{"blocks-low", func(p *Profile) { p.Blocks = 0 }, "0 blocks outside [1, 64]"},
		{"blocks-high", func(p *Profile) { p.Blocks = 65 }, "65 blocks outside [1, 64]"},
		{"ops-low", func(p *Profile) { p.Ops = 1 }, "1 ops per block outside [2, 512]"},
		{"ops-high", func(p *Profile) { p.Ops = 513 }, "513 ops per block outside [2, 512]"},
		{"mem", func(p *Profile) { p.MemDensity = 0.81 }, "memory density 0.81 outside [0, 0.8]"},
		{"mem-neg", func(p *Profile) { p.MemDensity = -0.1 }, "memory density -0.1 outside [0, 0.8]"},
		{"mul", func(p *Profile) { p.MulDensity = 0.9 }, "multiply density 0.9 outside [0, 0.8]"},
		{"branch", func(p *Profile) { p.BranchDensity = 1.5 }, "branch density 1.5 outside [0, 1]"},
		{"bias", func(p *Profile) { p.TakenBias = -1 }, "taken bias -1 outside [0, 1]"},
		{"trip-zero", func(p *Profile) { p.TripCount = 0 }, "trip count 0 must be at least 1"},
		{"trip-high", func(p *Profile) { p.TripCount = 70000 }, "trip count 70000 above 65536"},
		{"unroll", func(p *Profile) { p.Unroll = 9 }, "unroll factor 9 outside [0, 8]"},
	}
	for _, tc := range cases {
		p := ok
		tc.mut(&p)
		err := p.Validate()
		if err == nil {
			t.Errorf("%s: invalid profile accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if _, genErr := Generate(p, 1); genErr == nil {
			t.Errorf("%s: Generate accepted an invalid profile", tc.name)
		}
	}
}

// TestNameRoundTrip: canonical names parse back to the exact quantized
// profile and seed, and re-encode identically.
func TestNameRoundTrip(t *testing.T) {
	rng := NewRand(5)
	for iter := 0; iter < 50; iter++ {
		p := RandomProfile(rng, Class(iter%3)).Quantize()
		seed := rng.next()
		name := BenchmarkName(p, seed)
		if !IsName(name) {
			t.Fatalf("IsName(%q) = false", name)
		}
		gotP, gotSeed, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if gotP != p || gotSeed != seed {
			t.Fatalf("Parse(%q) = (%+v, %d), want (%+v, %d)", name, gotP, gotSeed, p, seed)
		}
		if re := BenchmarkName(gotP, gotSeed); re != name {
			t.Fatalf("re-encode of %q gives %q", name, re)
		}
	}
}

// TestParseRejects covers the name-grammar error paths.
func TestParseRejects(t *testing.T) {
	good := BenchmarkName(Profile{Class: Low, Blocks: 2, Ops: 8, MemDensity: 0.2,
		BranchDensity: 0.5, TakenBias: 0.5, TripCount: 8}, 3)
	cases := []struct {
		name string
		want string
	}{
		{"imgpipe", "missing \"gen:\" prefix"},
		{"gen:L:b2", "want 10 fields"},
		{"gen:Q:b2:o8:m2000:u0:x5000:p5000:t8:r0:s3", "unknown ILP class"},
		{"gen:L:z2:o8:m2000:u0:x5000:p5000:t8:r0:s3", "does not start with"},
		{"gen:L:b-2:o8:m2000:u0:x5000:p5000:t8:r0:s3", "not a non-negative integer"},
		{"gen:L:b2:o8:m2000:u0:x5000:p5000:t8:r0:s-3", "not an unsigned integer"},
		{"gen:L:b0:o8:m2000:u0:x5000:p5000:t8:r0:s3", "0 blocks outside"},
		{"gen:L:b2:o8:m9000:u0:x5000:p5000:t8:r0:s3", "memory density"},
		{"gen:L:b2:o8:m2000:u0:x5000:p5000:t0:r0:s3", "trip count 0"},
		{"gen:L:b02:o8:m2000:u0:x5000:p5000:t8:r0:s3", "not canonical"},
	}
	for _, tc := range cases {
		if _, _, err := Parse(tc.name); err == nil {
			t.Errorf("Parse(%q) accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if _, _, err := Parse(good); err != nil {
		t.Fatalf("Parse(%q): %v", good, err)
	}
}

// TestMixNames covers mix-name round trips, member determinism and the
// error paths.
func TestMixNames(t *testing.T) {
	name, err := MixName("LMHH", 7)
	if err != nil {
		t.Fatal(err)
	}
	if name != "genmix:LMHH:s7" {
		t.Fatalf("MixName = %q", name)
	}
	combo, seed, err := ParseMixName(name)
	if err != nil || combo != "LMHH" || seed != 7 {
		t.Fatalf("ParseMixName(%q) = (%q, %d, %v)", name, combo, seed, err)
	}

	a, err := MixMembers("LMHH", 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MixMembers("LMHH", 7)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("MixMembers not deterministic: %v vs %v", a, b)
	}
	wantClasses := [4]Class{Low, Medium, High, High}
	for i, m := range a {
		p, _, err := Parse(m)
		if err != nil {
			t.Fatalf("member %d %q: %v", i, m, err)
		}
		if p.Class != wantClasses[i] {
			t.Fatalf("member %d class %v, want %v", i, p.Class, wantClasses[i])
		}
	}
	if c, err := MixMembers("LMHH", 8); err != nil {
		t.Fatal(err)
	} else if c == a {
		t.Fatal("different mix seeds produced identical members")
	}

	for _, bad := range []string{"LMH", "LMHX", "LMHHH", ""} {
		if _, err := MixName(bad, 1); err == nil {
			t.Errorf("MixName(%q) accepted", bad)
		}
		if _, err := MixMembers(bad, 1); err == nil {
			t.Errorf("MixMembers(%q) accepted", bad)
		}
	}
	for _, bad := range []string{"imgpipe", "genmix:LMHH", "genmix:LMHQ:s1", "genmix:LMHH:7", "genmix:LMHH:s1x"} {
		if _, _, err := ParseMixName(bad); err == nil {
			t.Errorf("ParseMixName(%q) accepted", bad)
		}
	}
}
