package cpu

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestKernelDispatch logs which body the read- and write-path kernels, the
// route's owner pass, the XOR-popcount and the element codec run on this
// machine, so a green run without AVX-512 is not read as coverage of the
// assembly. Where /proc/cpuinfo exists it must not contradict the answer: a
// flag it lacks means the vector bodies stay off.
func TestKernelDispatch(t *testing.T) {
	if AVX512 {
		t.Log("kernel dispatch: AVX-512 bodies (fill, gathers, the classic family's fused fill-and-gather, edge positions and the route's shard owners run the assembly)")
	} else {
		t.Log("kernel dispatch: Go loops only (no AVX-512F/DQ, BMI2, POPCNT or OS ZMM state, another target, or -tags purego)")
	}
	if AVX512VPOPCNTDQ {
		t.Log("XOR-popcount: AVX-512 body (VPOPCNTQ, eight words a step)")
	} else {
		t.Log("XOR-popcount: Go loop (no AVX512_VPOPCNTDQ, no AVX512 above, another target, or -tags purego)")
	}
	if AVX512VBMI2 {
		t.Log("element codec: AVX-512 bodies (length pass and encoder four edges a step, decoder eight varints a step)")
	} else {
		t.Log("element codec: Go loops (no AVX512BW, AVX512CD, AVX512_VBMI or AVX512_VBMI2, no AVX512 above, another target, or -tags purego)")
	}
	if AVX512VPOPCNTDQ && !AVX512 {
		t.Fatal("AVX512VPOPCNTDQ is true but AVX512 is false")
	}
	if AVX512VBMI2 && !AVX512 {
		t.Fatal("AVX512VBMI2 is true but AVX512 is false")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return
	}
	for _, line := range strings.Split(string(info), "\n") {
		if !strings.HasPrefix(line, "flags") {
			continue
		}
		flags := " " + line[strings.IndexByte(line, ':')+1:] + " "
		for _, f := range []string{"avx512f", "avx512dq", "bmi2", "popcnt"} {
			if AVX512 && !strings.Contains(flags, " "+f+" ") {
				t.Fatalf("AVX512 is true but /proc/cpuinfo lacks %q", f)
			}
		}
		if AVX512VPOPCNTDQ && !strings.Contains(flags, " avx512_vpopcntdq ") {
			t.Fatal(`AVX512VPOPCNTDQ is true but /proc/cpuinfo lacks "avx512_vpopcntdq"`)
		}
		for _, f := range []string{"avx512bw", "avx512cd", "avx512vbmi", "avx512_vbmi2"} {
			if AVX512VBMI2 && !strings.Contains(flags, " "+f+" ") {
				t.Fatalf("AVX512VBMI2 is true but /proc/cpuinfo lacks %q", f)
			}
		}
		return
	}
}

// TestGoLoopsOnly: the switch clears every flag cpu.go declares and every
// flag a kernel reads, and restore brings each back — from the detected
// values and from all of them on, so the check bites on any host.
func TestGoLoopsOnly(t *testing.T) {
	flags := map[string]*bool{"AVX512": &AVX512, "AVX512VPOPCNTDQ": &AVX512VPOPCNTDQ, "AVX512VBMI2": &AVX512VBMI2}
	src, err := os.ReadFile("cpu.go")
	if err != nil {
		t.Fatal(err)
	}
	named := regexp.MustCompile(`(?m)^var (\w+) bool`).FindAllStringSubmatch(string(src), -1)
	// The kernel packages sit beside this one under internal/.
	err = filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			src, err = os.ReadFile(path)
			named = append(named, regexp.MustCompile(`\bcpu\.([A-Z]\w*)`).FindAllStringSubmatch(string(src), -1)...)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range named {
		if flags[m[1]] == nil {
			t.Fatalf("%s is declared or read, and this test does not check that GoLoopsOnly clears it", m[1])
		}
	}
	detected := map[string]bool{}
	for name, p := range flags {
		detected[name] = *p
	}
	defer func() {
		for name, p := range flags {
			*p = detected[name]
		}
	}()
	for _, allOn := range []bool{false, true} {
		for _, p := range flags {
			*p = *p || allOn
		}
		restore := GoLoopsOnly()
		for name, p := range flags {
			if *p {
				t.Errorf("%s is still on under GoLoopsOnly", name)
			}
		}
		restore()
		for name, p := range flags {
			if *p != (detected[name] || allOn) {
				t.Errorf("restore left %s %v, want %v", name, *p, detected[name] || allOn)
			}
		}
	}
}
