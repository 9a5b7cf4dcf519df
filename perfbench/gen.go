package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"github.com/repro/wormhole/internal/keyset"
)

// Seeded input generation. Every input the benchmark sends — preload keys,
// fresh insert keys, key choices, scan limits and value bytes — derives from
// the --seed flag, so one seed always produces the same request stream per
// connection (only the interleaving of connections varies).

// ValueLen is the size of every stored value.
const ValueLen = 100

// Value layout: [0:8] key tag, [8:12] writer id (0 = preload),
// [12:20] writer sequence number, [20:100] filler derived from all three.
// The tag binds a value to its key; writer and sequence identify which
// write it is, which the recovery check needs.
const (
	tagOff    = 0
	writerOff = 8
	seqOff    = 12
	fillOff   = 20
)

// mix64 is the splitmix64 finalizer: a cheap bijective 64-bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// keyTag is the 8-byte tag every value carries for its key: FNV-1a over
// the key, mixed with the seed so a value written under another seed
// never passes.
func keyTag(seed uint64, key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range key {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return mix64(h ^ seed)
}

// fillValue writes the value for (key, writer, seq) into v[:ValueLen].
func fillValue(v []byte, seed uint64, key []byte, writer uint32, seq uint64) {
	tag := keyTag(seed, key)
	binary.LittleEndian.PutUint64(v[tagOff:], tag)
	binary.LittleEndian.PutUint32(v[writerOff:], writer)
	binary.LittleEndian.PutUint64(v[seqOff:], seq)
	x := tag ^ uint64(writer)<<48 ^ seq
	for off := fillOff; off < ValueLen; off += 8 {
		x = mix64(x + 0x9e3779b97f4a7c15)
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], x)
		copy(v[off:ValueLen], w[:])
	}
}

// checkTag reports whether v is a well-formed value written for key.
func checkTag(seed uint64, key, v []byte) error {
	if len(v) != ValueLen {
		return fmt.Errorf("value for %q has %d bytes, want %d", key, len(v), ValueLen)
	}
	if binary.LittleEndian.Uint64(v[tagOff:]) != keyTag(seed, key) {
		return fmt.Errorf("value for %q carries another key's tag", key)
	}
	return nil
}

// valueWriter decodes the writer id and sequence number of a value.
func valueWriter(v []byte) (writer uint32, seq uint64) {
	return binary.LittleEndian.Uint32(v[writerOff:]), binary.LittleEndian.Uint64(v[seqOff:])
}

// checkValue verifies v byte for byte against the value (key, writer, seq)
// it claims to be.
func checkValue(seed uint64, key, v []byte) error {
	if err := checkTag(seed, key, v); err != nil {
		return err
	}
	w, s := valueWriter(v)
	var want [ValueLen]byte
	fillValue(want[:], seed, key, w, s)
	if !bytes.Equal(v, want[:]) {
		return fmt.Errorf("value for %q (writer %d seq %d) is corrupt", key, w, s)
	}
	return nil
}

// newRand returns the generator for one input stream of a seed; stream
// separates the streams (preload values, connection 0, connection 1, ...).
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, mix64(stream+1)))
}

// chooser picks key indexes in [0, n).
type chooser interface {
	next() int
}

// uniform chooses every index with equal probability.
type uniform struct {
	r *rand.Rand
	n int
}

func (u *uniform) next() int { return u.r.IntN(u.n) }

// zipfian is YCSB's scrambled zipfian chooser: ranks follow a zipfian
// distribution with constant theta (YCSB's ZipfianGenerator, Gray et al.'s
// method), and each rank is hashed onto the keyspace so the hot keys are
// scattered across it rather than clustered at its start.
type zipfian struct {
	r                        *rand.Rand
	n                        int
	theta, alpha, zetan, eta float64
	halfPowTheta             float64
}

func newZipfian(r *rand.Rand, n int, theta float64) *zipfian {
	zeta := func(m int) float64 {
		s := 0.0
		for i := 1; i <= m; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipfian{r: r, n: n, theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetan)
	z.halfPowTheta = 1 + math.Pow(0.5, theta)
	return z
}

// rank returns a zipfian rank in [0, n): rank 0 is the most popular.
func (z *zipfian) rank() int {
	u := z.r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.halfPowTheta {
		return 1
	}
	k := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

func (z *zipfian) next() int { return int(mix64(uint64(z.rank())) % uint64(z.n)) }

// preloadKeys generates n distinct Az1 keys for seed.
func preloadKeys(n int, seed uint64) [][]byte {
	return keyset.GenAz1(n, int64(seed))
}

// freshKeys generates n Az1 keys that are distinct from each other and
// from every preload key (sorted holds the preload ascending): the insert
// stream of scan-churn. They are drawn from the same Az1 distribution under
// derived seeds, so they land between existing keys across the whole
// keyspace and force leaf splits everywhere.
func freshKeys(n int, seed uint64, sorted [][]byte) [][]byte {
	out := make([][]byte, 0, n)
	var taken map[string]bool // earlier rounds' keys; only needed past round 1
	for round := uint64(1); len(out) < n; round++ {
		if round == 2 {
			taken = make(map[string]bool, len(out))
			for _, k := range out {
				taken[string(k)] = true
			}
		}
		for _, k := range keyset.GenAz1(n-len(out), int64(mix64(seed^round<<56))) {
			if _, preloaded := slices.BinarySearchFunc(sorted, k, bytes.Compare); preloaded || taken[string(k)] {
				continue
			}
			if taken != nil {
				taken[string(k)] = true
			}
			out = append(out, k)
		}
	}
	return out
}

// sortedCopy returns keys sorted ascending (sharing the key buffers).
func sortedCopy(keys [][]byte) [][]byte {
	s := slices.Clone(keys)
	slices.SortFunc(s, bytes.Compare)
	return s
}
