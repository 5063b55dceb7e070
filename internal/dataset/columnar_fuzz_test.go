package dataset

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"tangledmass/internal/corpus"
	"tangledmass/internal/population"
)

// reseal rewrites every checksum a columnar file carries — each in-bounds
// section's CRC32C, then the header's — so that mutated bytes reach the
// section decoders instead of failing a checksum.
func reseal(data []byte) []byte {
	b := append([]byte(nil), data...)
	off := len(columnarMagic) + 4
	if len(b) < off {
		return b
	}
	count := binary.LittleEndian.Uint32(b[off-4:])
	for i := uint32(0); i < count && i < maxColumnarSections; i++ {
		if off >= len(b) {
			return b
		}
		off += 1 + int(b[off])
		if off+20 > len(b) {
			return b
		}
		start, n := binary.LittleEndian.Uint64(b[off:]), binary.LittleEndian.Uint64(b[off+8:])
		if start <= uint64(len(b)) && n <= uint64(len(b))-start {
			binary.LittleEndian.PutUint32(b[off+16:], crc32.Checksum(b[start:start+n], castagnoli))
		}
		off += 20
	}
	if off+4 <= len(b) {
		binary.LittleEndian.PutUint32(b[off:], crc32.Checksum(b[:off], castagnoli))
	}
	return b
}

// layout places sections behind a columnar header, with zero checksums
// for reseal to fill in.
func layout(sections ...section) []byte {
	b := binary.LittleEndian.AppendUint32([]byte(columnarMagic), uint32(len(sections)))
	off := len(b) + 4
	for _, s := range sections {
		off += 1 + len(s.name) + 20
	}
	for _, s := range sections {
		b = append(append(b, byte(len(s.name))), s.name...)
		b = binary.LittleEndian.AppendUint64(b, uint64(off))
		b = binary.LittleEndian.AppendUint64(b, uint64(len(s.data)))
		b = binary.LittleEndian.AppendUint32(b, 0)
		off += len(s.data)
	}
	b = binary.LittleEndian.AppendUint32(b, 0)
	for _, s := range sections {
		b = append(b, s.data...)
	}
	return b
}

// oneHandset is a certificate-free file for one handset on Android
// version, whose meta, ids and every column claim `handsets` handsets and
// whose one handset claims `sessions` sessions.
func oneHandset(handsets, sessions uint64, version string) []byte {
	u := binary.AppendUvarint
	profiles := append(u(u(nil, 1), uint64(len(version))), version...)
	return layout(
		section{"meta", u(u(u(nil, handsets), 0), sessions)},
		section{"der", u(nil, 0)},
		section{"ids", binary.AppendVarint(u(nil, handsets), 7)},
		section{"profiles", append(u(profiles, handsets), 0, 0, 0, 0, 0)},
		section{"flags", append(u(nil, handsets), 0)},
		section{"sessions", u(u(nil, handsets), sessions)},
		section{"system", u(u(nil, handsets), 0)},
		section{"user", u(u(nil, handsets), 0)},
	)
}

// FuzzColumnarRead writes each input as handsets.col, re-sealed so its
// checksums hold, and reads it. Reading must never panic, Read must never
// return a population from a file Verify rejects, and for an accepted
// file Inspect's counts must match the population Read built.
func FuzzColumnarRead(f *testing.F) {
	p, err := population.Generate(population.Config{Seed: 3, SessionScale: 0.005})
	if err != nil {
		f.Fatal(err)
	}
	fresh := f.TempDir()
	if err := NewWriter(fresh, WithFormat(Columnar)).Write(context.Background(), p); err != nil {
		f.Fatal(err)
	}
	written, err := os.ReadFile(filepath.Join(fresh, columnarFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(written)
	// TestColumnarCorruption's damage, which re-sealing turns into
	// structural damage.
	for _, mutate := range []func(b []byte) []byte{
		func(b []byte) []byte { b[0] ^= 0xff; return b },
		func(b []byte) []byte { b[len(columnarMagic)+6] ^= 0x01; return b },
		func(b []byte) []byte { b[len(b)/3] ^= 0x40; return b },
		func(b []byte) []byte { b[len(b)-20] ^= 0x40; return b },
		func(b []byte) []byte { return b[:len(b)/2] },
		func(b []byte) []byte { return b[:len(columnarMagic)+2] },
	} {
		f.Add(mutate(append([]byte(nil), written...)))
	}
	f.Add(oneHandset(1, 2, "4.4"))
	f.Add(oneHandset(1<<62, 2, "4.4")) // a count no section can hold
	f.Add(oneHandset(1, 1<<62, "4.4")) // a session claim that sizes Read's allocation
	f.Add(oneHandset(1, 2, "9.9"))     // a version without an AOSP store

	dir := f.TempDir()
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, columnarFile), reseal(data), 0o644); err != nil {
			t.Fatal(err)
		}
		r := NewReader(dir, WithFormat(Columnar), WithCorpus(corpus.New()))
		pop, err := r.Read(ctx)
		if err != nil {
			return
		}
		if _, err := r.Verify(ctx); err != nil {
			t.Fatalf("Read accepted a file Verify rejects: %v", err)
		}
		info, err := r.Inspect(ctx)
		if err != nil {
			t.Fatalf("Read accepted a file Inspect rejects: %v", err)
		}
		if info.Handsets != len(pop.Handsets) || info.Sessions != pop.TotalSessions() {
			t.Fatalf("Inspect counts %d handsets, %d sessions; Read built %d, %d",
				info.Handsets, info.Sessions, len(pop.Handsets), pop.TotalSessions())
		}
	})
}
