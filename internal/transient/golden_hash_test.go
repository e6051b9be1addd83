package transient_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"wavepipe/internal/circuits"
	"wavepipe/internal/transient"
)

// goldenSerialHashes pins the serial default waveform of every suite
// circuit: FNV-1a-64 over the little-endian Float64bits of every recorded
// row. Any change to the serial solve step that moves a single output bit
// (an LU kernel, a divided-difference loop, a factorization shortcut) shows
// up here.
var goldenSerialHashes = map[string]string{
	"grid16":    "7ce069b2af2ea0df",
	"grid24":    "d9900b9a239c5a1f",
	"grid32":    "ccdbcb40b45c5015",
	"ladder400": "c2ebbe6abe88c3e0",
	"rlctree8":  "41872c2c00124707",
	"rect1k":    "332562d004103c79",
	"amp10M":    "0dd2c8f006146c24",
	"ring9":     "205a61a774fc352c",
	"inv50":     "9f42dcecd3d9ae90",
	"nand5":     "59030354aeb7f668",
	"ekv30":     "d2d80ec3a9036041",
	"ecl8":      "2800e305181b6978",
}

// waveHash hashes every row of a result waveform.
func waveHash(res *transient.Result) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, row := range res.W.Data {
		for _, v := range row {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestSerialWaveformGoldenHashes requires the serial waveforms of all suite
// circuits to stay bit-identical to the pinned hashes. The hashes were taken
// on amd64, where Go never fuses a multiply and an add; other architectures
// may legally round differently, so the test runs on amd64 only.
func TestSerialWaveformGoldenHashes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are pinned on amd64; GOARCH=%s may fuse multiply-adds", runtime.GOARCH)
	}
	suite := circuits.Suite()
	if len(suite) != len(goldenSerialHashes) {
		t.Fatalf("suite has %d circuits, %d hashes pinned", len(suite), len(goldenSerialHashes))
	}
	for _, b := range suite {
		t.Run(b.Name, func(t *testing.T) {
			sys, err := b.Make().Build()
			if err != nil {
				t.Fatal(err)
			}
			res, err := transient.Run(sys, transient.Options{TStop: b.TStop})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := waveHash(res), goldenSerialHashes[b.Name]; got != want {
				t.Errorf("serial waveform hash %s, pinned %s", got, want)
			}
		})
	}
}

// goldenBypassRuns pins two runs with factorization bypass and device bypass
// both on, where a Newton iteration can meet an exactly reused LU next to a
// load with bypassed device evaluations. An exact reuse is not a stale LU,
// so such an iteration takes the in-place certification path instead of
// forcing one more full iteration, as a bypassed factorization would: the
// waveforms match runs that counted the reuse as a bypass, the Newton
// iteration counts are lower (inv50 4496, ecl8 4226 before exact reuse).
var goldenBypassRuns = []struct {
	name  string
	hash  string
	iters int
}{
	{"inv50", "47e53e6dd25696fb", 4495},
	{"ecl8", "b645039bc2315e33", 4223},
}

// TestBypassWaveformGoldenHashes requires the bypassing runs to keep their
// pinned waveform hash and Newton iteration count (amd64 only, as above).
func TestBypassWaveformGoldenHashes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are pinned on amd64; GOARCH=%s may fuse multiply-adds", runtime.GOARCH)
	}
	byName := map[string]circuits.Benchmark{}
	for _, b := range circuits.Suite() {
		byName[b.Name] = b
	}
	for _, g := range goldenBypassRuns {
		t.Run(g.name, func(t *testing.T) {
			b := byName[g.name]
			sys, err := b.Make().Build()
			if err != nil {
				t.Fatal(err)
			}
			res, err := transient.Run(sys, transient.Options{
				TStop:           b.TStop,
				BypassTol:       1e-3,
				DeviceBypassTol: transient.DefaultDeviceBypassTol,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := waveHash(res); got != g.hash {
				t.Errorf("waveform hash %s, pinned %s", got, g.hash)
			}
			if res.Stats.NRIters != g.iters {
				t.Errorf("%d Newton iterations, pinned %d", res.Stats.NRIters, g.iters)
			}
		})
	}
}
