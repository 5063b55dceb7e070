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

// handsetFile is a certificate-free file of `rows` handsets on Android
// version, each claiming `sessions` sessions, whose meta, ids and every
// column claim `claimed` handsets.
func handsetFile(claimed uint64, rows int, sessions uint64, version string) []byte {
	u := binary.AppendUvarint
	ids := u(nil, claimed)
	profiles := u(append(u(u(nil, 1), uint64(len(version))), version...), claimed)
	flags, counts, stores := u(nil, claimed), u(nil, claimed), u(nil, claimed)
	for i := 0; i < rows; i++ {
		ids = binary.AppendVarint(ids, int64(7+i))
		profiles = append(profiles, 0, 0, 0, 0, 0)
		flags = append(flags, 0)
		counts = u(counts, sessions)
		stores = u(stores, 0)
	}
	return layout(
		section{"meta", u(u(u(nil, claimed), 0), uint64(rows)*sessions)},
		section{"der", u(nil, 0)},
		section{"ids", ids},
		section{"profiles", profiles},
		section{"flags", flags},
		section{"sessions", counts},
		section{"system", stores},
		section{"user", stores},
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
	f.Add(handsetFile(1, 1, 2, "4.4"))
	f.Add(handsetFile(1<<62, 1, 2, "4.4"))                  // a count no section can hold
	f.Add(handsetFile(1, 1, 1<<62, "4.4"))                  // a session claim that sizes Read's allocation
	f.Add(handsetFile(1, 1, 2, "9.9"))                      // a version without an AOSP store
	f.Add(handsetFile(100, 100, maxHandsetSessions, "4.4")) // more sessions than the file has bytes

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
