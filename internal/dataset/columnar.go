package dataset

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"tangledmass/internal/corpus"
	"tangledmass/internal/device"
	"tangledmass/internal/parallel"
	"tangledmass/internal/population"
	"tangledmass/internal/rootstore"
)

// The columnar file is one sectioned, seekable binary file:
//
//	magic                       "TANGLED-DATASET-COL1\n"
//	section count               uint32 LE
//	directory, one entry per
//	section                     nameLen uint8, name, offset uint64 LE,
//	                            length uint64 LE, CRC32C uint32 LE
//	header checksum             CRC32C (Castagnoli) of every byte above,
//	                            uint32 LE
//	section payloads            at their directory offsets
//
// Sections, in file order:
//
//	meta      handset count, certificate count, total sessions (uvarints)
//	der       deduplicated certificate table sorted by content digest —
//	          the same shape as the notary's snapshot v3 DER table: count,
//	          then per certificate a length-prefixed DER blob
//	ids       per-handset ID (varint)
//	profiles  string pool (count, then length-prefixed strings in first-
//	          encounter order) followed by five pool indices per handset:
//	          model, manufacturer, operator, country, version
//	flags     one byte per handset: bit0 rooted, bit1 rooted-exclusive,
//	          bit2 intercepted
//	sessions  per-handset session count (uvarint)
//	system    per-handset store membership: member count, then strictly
//	user      increasing DER-table indices, delta-encoded (uvarints)
//	apps      app validation profiles: a string pool of app names (count,
//	          then length-prefixed names in first-encounter order),
//	          followed by per-handset profile lists — profile count, then
//	          per profile a pool index (uvarint) and one flags byte:
//	          bit0 accept-all, bit1 skip-hostname, bit2 bypass-pins
//
// The apps section is optional on read: files written before it decode with
// policy-free devices, and session emission falls back to the strict
// platform default. Writers always emit it.
//
// Every section is independently CRC32C-checksummed, so a reader can seek
// straight to one column, and truncation or a flipped bit anywhere fails
// loudly — the same loud-rejection contract as notary.Load.

const columnarMagic = "TANGLED-DATASET-COL1\n"

// maxColumnarSections bounds the directory a reader will accept; the format
// defines nine.
const maxColumnarSections = 64

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func columnarPath(dir string) string { return filepath.Join(dir, columnarFile) }

// section is one named, checksummed payload being assembled by the writer.
type section struct {
	name string
	data []byte
}

// writeColumnar serializes p into dir/handsets.col. The encoding is fully
// deterministic: two writes of the same population produce identical bytes.
func writeColumnar(ctx context.Context, dir string, p *population.Population, cfg config) error {
	n := len(p.Handsets)

	// Gather store memberships as handles in the target corpus, and the
	// distinct certificate set in first-encounter order. Firmware
	// memberships repeat heavily across handsets and a row stores its
	// members sorted, so each distinct membership (by content key) is
	// translated and, below, encoded once.
	type membership struct {
		c      *corpus.Corpus
		digest corpus.Digest
		n      int
	}
	members := map[membership][]corpus.Ref{}
	seen := map[corpus.Ref]bool{}
	var distinct []corpus.Ref
	gather := func(s *rootstore.Store) membership {
		k := membership{s.Corpus(), s.ContentDigest(), s.Len()}
		if _, ok := members[k]; ok {
			return k
		}
		refs := s.Refs()
		if s.Corpus() != cfg.corpus {
			for i, ref := range refs {
				refs[i] = cfg.corpus.InternCert(s.Corpus().Cert(ref))
			}
		}
		for _, ref := range refs {
			if !seen[ref] {
				seen[ref] = true
				distinct = append(distinct, ref)
			}
		}
		members[k] = refs
		return k
	}
	sysRows := make([]membership, n)
	usrRows := make([]membership, n)
	for i, h := range p.Handsets {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("dataset: write cancelled: %w", err)
		}
		sysRows[i] = gather(h.Device.SystemStore())
		usrRows[i] = gather(h.Device.UserStore())
	}

	// The DER table is sorted by content digest — deterministic regardless
	// of handset order or corpus state, exactly like the notary snapshot.
	sort.Slice(distinct, func(i, j int) bool {
		di, dj := cfg.corpus.Entry(distinct[i]).Digest, cfg.corpus.Entry(distinct[j]).Digest
		return bytes.Compare(di[:], dj[:]) < 0
	})
	tableIdx := make(map[corpus.Ref]int, len(distinct))
	for i, ref := range distinct {
		tableIdx[ref] = i
	}

	// meta
	totalSessions := 0
	for _, h := range p.Handsets {
		totalSessions += h.SessionCount
	}
	meta := binary.AppendUvarint(nil, uint64(n))
	meta = binary.AppendUvarint(meta, uint64(len(distinct)))
	meta = binary.AppendUvarint(meta, uint64(totalSessions))

	// der
	der := binary.AppendUvarint(nil, uint64(len(distinct)))
	for _, ref := range distinct {
		raw := cfg.corpus.Entry(ref).DER
		der = binary.AppendUvarint(der, uint64(len(raw)))
		der = append(der, raw...)
	}

	// ids, profiles, flags, sessions
	ids := binary.AppendUvarint(nil, uint64(n))
	var pool []string
	poolIdx := map[string]int{}
	internStr := func(s string) uint64 {
		if i, ok := poolIdx[s]; ok {
			return uint64(i)
		}
		poolIdx[s] = len(pool)
		pool = append(pool, s)
		return uint64(len(pool) - 1)
	}
	profCols := binary.AppendUvarint(nil, uint64(n))
	flags := binary.AppendUvarint(nil, uint64(n))
	sessions := binary.AppendUvarint(nil, uint64(n))
	for _, h := range p.Handsets {
		ids = binary.AppendVarint(ids, int64(h.ID))
		for _, s := range []string{h.Model, h.Manufacturer, h.Operator, h.Country, h.Version} {
			profCols = binary.AppendUvarint(profCols, internStr(s))
		}
		var b byte
		if h.Rooted {
			b |= 1
		}
		if h.RootedExclusive {
			b |= 2
		}
		if h.Intercepted {
			b |= 4
		}
		flags = append(flags, b)
		sessions = binary.AppendUvarint(sessions, uint64(h.SessionCount))
	}
	profiles := binary.AppendUvarint(nil, uint64(len(pool)))
	for _, s := range pool {
		profiles = binary.AppendUvarint(profiles, uint64(len(s)))
		profiles = append(profiles, s...)
	}
	profiles = append(profiles, profCols...)

	// system / user membership columns: per handset the sorted DER-table
	// indices, delta-encoded (strictly increasing, so every delta >= 1).
	encodeMembership := func(rows []membership) []byte {
		out := binary.AppendUvarint(nil, uint64(n))
		encoded := map[membership][]byte{}
		for _, k := range rows {
			row, ok := encoded[k]
			if !ok {
				refs := members[k]
				idxs := make([]int, len(refs))
				for i, ref := range refs {
					idxs[i] = tableIdx[ref]
				}
				sort.Ints(idxs)
				row = binary.AppendUvarint(nil, uint64(len(idxs)))
				prev := -1
				for _, v := range idxs {
					row = binary.AppendUvarint(row, uint64(v-prev))
					prev = v
				}
				encoded[k] = row
			}
			out = append(out, row...)
		}
		return out
	}
	// apps: self-contained app-name pool plus per-handset (index, flags)
	// profile lists in draw order, so a round-trip rotates sessions over the
	// same policy sequence the generator produced.
	var appPool []string
	appPoolIdx := map[string]int{}
	appBody := []byte(nil)
	for _, h := range p.Handsets {
		pols := h.Device.Policies()
		appBody = binary.AppendUvarint(appBody, uint64(len(pols)))
		for _, pol := range pols {
			idx, ok := appPoolIdx[pol.App]
			if !ok {
				idx = len(appPool)
				appPoolIdx[pol.App] = idx
				appPool = append(appPool, pol.App)
			}
			appBody = binary.AppendUvarint(appBody, uint64(idx))
			var fb byte
			if pol.AcceptAll {
				fb |= 1
			}
			if pol.SkipHostname {
				fb |= 2
			}
			if pol.BypassPins {
				fb |= 4
			}
			appBody = append(appBody, fb)
		}
	}
	apps := binary.AppendUvarint(nil, uint64(len(appPool)))
	for _, s := range appPool {
		apps = binary.AppendUvarint(apps, uint64(len(s)))
		apps = append(apps, s...)
	}
	apps = binary.AppendUvarint(apps, uint64(n))
	apps = append(apps, appBody...)

	sections := []section{
		{"meta", meta},
		{"der", der},
		{"ids", ids},
		{"profiles", profiles},
		{"flags", flags},
		{"sessions", sessions},
		{"system", encodeMembership(sysRows)},
		{"user", encodeMembership(usrRows)},
		{"apps", apps},
	}

	// Assemble the header + directory, then stream the payloads.
	dirSize := 0
	for _, s := range sections {
		dirSize += 1 + len(s.name) + 8 + 8 + 4
	}
	headerLen := len(columnarMagic) + 4 + dirSize + 4
	header := make([]byte, 0, headerLen)
	header = append(header, columnarMagic...)
	header = binary.LittleEndian.AppendUint32(header, uint32(len(sections)))
	offset := uint64(headerLen)
	for _, s := range sections {
		header = append(header, byte(len(s.name)))
		header = append(header, s.name...)
		header = binary.LittleEndian.AppendUint64(header, offset)
		header = binary.LittleEndian.AppendUint64(header, uint64(len(s.data)))
		header = binary.LittleEndian.AppendUint32(header, crc32.Checksum(s.data, castagnoli))
		offset += uint64(len(s.data))
	}
	header = binary.LittleEndian.AppendUint32(header, crc32.Checksum(header, castagnoli))

	f, err := os.Create(columnarPath(dir))
	if err != nil {
		return fmt.Errorf("dataset: creating columnar file: %w", err)
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	if _, err := bw.Write(header); err != nil {
		return fmt.Errorf("dataset: writing columnar header: %w", err)
	}
	for _, s := range sections {
		if _, err := bw.Write(s.data); err != nil {
			return fmt.Errorf("dataset: writing %q section: %w", s.name, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("dataset: flushing columnar file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("dataset: closing columnar file: %w", err)
	}
	return nil
}

// columnarDir is an open columnar file with its parsed, checksum-verified
// directory. Section payloads are read (and CRC-checked) on demand.
type columnarDir struct {
	path      string
	f         *os.File
	size      int64
	headerLen int64
	sections  []SectionInfo
}

func openColumnar(dir string) (*columnarDir, error) {
	path := columnarPath(dir)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: opening columnar file: %w", err)
	}
	cd := &columnarDir{path: path, f: f}
	// fail closes the file on any parse error; the open error wins, so the
	// close error is deliberately dropped.
	fail := func(err error) (*columnarDir, error) {
		_ = f.Close()
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		return fail(fmt.Errorf("dataset: statting %s: %w", path, err))
	}
	cd.size = st.Size()

	br := bufio.NewReader(f)
	var hdr bytes.Buffer
	tee := io.TeeReader(br, &hdr)
	readFull := func(n int) ([]byte, error) {
		buf := make([]byte, n)
		if _, err := io.ReadFull(tee, buf); err != nil {
			return nil, fmt.Errorf("dataset: %s: reading header (truncated?): %w", path, err)
		}
		return buf, nil
	}
	magic, err := readFull(len(columnarMagic))
	if err != nil {
		return fail(err)
	}
	if string(magic) != columnarMagic {
		return fail(fmt.Errorf("dataset: %s: not a columnar dataset (bad magic)", path))
	}
	cntBuf, err := readFull(4)
	if err != nil {
		return fail(err)
	}
	count := binary.LittleEndian.Uint32(cntBuf)
	if count == 0 || count > maxColumnarSections {
		return fail(fmt.Errorf("dataset: %s: implausible section count %d", path, count))
	}
	for i := 0; i < int(count); i++ {
		nl, err := readFull(1)
		if err != nil {
			return fail(err)
		}
		name, err := readFull(int(nl[0]))
		if err != nil {
			return fail(err)
		}
		rest, err := readFull(8 + 8 + 4)
		if err != nil {
			return fail(err)
		}
		cd.sections = append(cd.sections, SectionInfo{
			Name:   string(name),
			Offset: int64(binary.LittleEndian.Uint64(rest[0:8])),
			Length: int64(binary.LittleEndian.Uint64(rest[8:16])),
			CRC32C: binary.LittleEndian.Uint32(rest[16:20]),
		})
	}
	computed := crc32.Checksum(hdr.Bytes(), castagnoli)
	var crcBuf [4]byte
	if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
		return fail(fmt.Errorf("dataset: %s: reading header checksum (truncated?): %w", path, err))
	}
	if binary.LittleEndian.Uint32(crcBuf[:]) != computed {
		return fail(fmt.Errorf("dataset: %s: header checksum mismatch (corrupt file)", path))
	}
	cd.headerLen = int64(hdr.Len()) + 4
	for _, si := range cd.sections {
		if si.Offset < cd.headerLen || si.Length < 0 || si.Offset+si.Length > cd.size {
			return fail(fmt.Errorf("dataset: %s: section %q out of bounds (truncated?)", path, si.Name))
		}
	}
	return cd, nil
}

func (cd *columnarDir) Close() error { return cd.f.Close() }

// has reports whether the directory lists a section — the optional-section
// probe (apps) that keeps old files loadable.
func (cd *columnarDir) has(name string) bool {
	for _, si := range cd.sections {
		if si.Name == name {
			return true
		}
	}
	return false
}

// read fetches a section payload by name, verifying its checksum.
func (cd *columnarDir) read(name string) ([]byte, error) {
	for _, si := range cd.sections {
		if si.Name != name {
			continue
		}
		buf := make([]byte, si.Length)
		if _, err := cd.f.ReadAt(buf, si.Offset); err != nil {
			return nil, fmt.Errorf("dataset: %s: reading %q section: %w", cd.path, name, err)
		}
		if crc32.Checksum(buf, castagnoli) != si.CRC32C {
			return nil, fmt.Errorf("dataset: %s: section %q checksum mismatch (corrupt file)", cd.path, name)
		}
		return buf, nil
	}
	return nil, fmt.Errorf("dataset: %s: missing %q section", cd.path, name)
}

// colBuf decodes one section payload with bounds checking.
type colBuf struct {
	name string
	b    []byte
	off  int
}

func (cb *colBuf) uvarint() (uint64, error) {
	v, n := binary.Uvarint(cb.b[cb.off:])
	if n <= 0 {
		return 0, fmt.Errorf("dataset: section %q: truncated varint at offset %d", cb.name, cb.off)
	}
	cb.off += n
	return v, nil
}

func (cb *colBuf) varint() (int64, error) {
	v, n := binary.Varint(cb.b[cb.off:])
	if n <= 0 {
		return 0, fmt.Errorf("dataset: section %q: truncated varint at offset %d", cb.name, cb.off)
	}
	cb.off += n
	return v, nil
}

func (cb *colBuf) take(n int) ([]byte, error) {
	if n < 0 || n > len(cb.b)-cb.off {
		return nil, fmt.Errorf("dataset: section %q: truncated payload at offset %d", cb.name, cb.off)
	}
	out := cb.b[cb.off : cb.off+n]
	cb.off += n
	return out, nil
}

// stringPool decodes a count, then that many length-prefixed strings.
// Every string takes at least one byte, so a count the section cannot hold
// is refused before it sizes the pool.
func (cb *colBuf) stringPool() ([]string, error) {
	n, err := cb.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(cb.b)) {
		return nil, fmt.Errorf("dataset: section %q: implausible pool size %d", cb.name, n)
	}
	pool := make([]string, n)
	for i := range pool {
		ln, err := cb.uvarint()
		if err != nil {
			return nil, err
		}
		s, err := cb.take(int(ln))
		if err != nil {
			return nil, err
		}
		pool[i] = string(s)
	}
	return pool, nil
}

// count reads the leading element count and checks it against the meta
// section's count. Every entry takes at least one byte, so a count the
// rest of the section cannot hold is refused before anything is sized
// by it.
func (cb *colBuf) count(want int) error {
	got, err := cb.uvarint()
	if err != nil {
		return err
	}
	if want < 0 || got != uint64(want) || want > len(cb.b)-cb.off {
		return fmt.Errorf("dataset: section %q: %d entries in %d bytes, want %d", cb.name, got, len(cb.b)-cb.off, want)
	}
	return nil
}

// membership holds a decoded store-membership column: per-handset slices of
// DER-table indices flattened into one backing array.
type membership struct {
	flat  []uint32
	start []int // len n+1; handset i owns flat[start[i]:start[i+1]]
}

func (m *membership) row(i int) []uint32 { return m.flat[m.start[i]:m.start[i+1]] }

// columns is a fully decoded and validated columnar file, ready for handset
// assembly (or discarded after a verify pass).
type columns struct {
	handsets, certs, sessions int

	ders     [][]byte
	ids      []int
	pool     []string
	profIdx  []uint32 // 5 pool indices per handset
	flags    []byte
	sessionN []int
	system   membership
	user     membership
	// policies holds each handset's app validation profiles in draw order;
	// nil when the file predates the apps section.
	policies [][]device.ValidationPolicy
}

// readMeta decodes the meta section: the handset, certificate and session
// counts. decodeColumns holds the per-handset counts to the session total.
func (cd *columnarDir) readMeta(handsets, certs, sessions *int) error {
	buf, err := cd.read("meta")
	if err != nil {
		return err
	}
	meta := &colBuf{name: "meta", b: buf}
	for _, dst := range []*int{handsets, certs, sessions} {
		v, err := meta.uvarint()
		if err != nil {
			return err
		}
		*dst = int(v)
	}
	return checkSessionTotal(*sessions, cd.size)
}

// decodeColumns reads every section, verifies checksums and decodes the
// columns with full bounds validation.
func decodeColumns(cd *columnarDir) (*columns, error) {
	var c columns
	if err := cd.readMeta(&c.handsets, &c.certs, &c.sessions); err != nil {
		return nil, err
	}
	n := c.handsets

	derBuf, err := cd.read("der")
	if err != nil {
		return nil, err
	}
	der := &colBuf{name: "der", b: derBuf}
	if err := der.count(c.certs); err != nil {
		return nil, err
	}
	c.ders = make([][]byte, c.certs)
	for i := range c.ders {
		ln, err := der.uvarint()
		if err != nil {
			return nil, err
		}
		if c.ders[i], err = der.take(int(ln)); err != nil {
			return nil, err
		}
	}

	idsBuf, err := cd.read("ids")
	if err != nil {
		return nil, err
	}
	ids := &colBuf{name: "ids", b: idsBuf}
	if err := ids.count(n); err != nil {
		return nil, err
	}
	c.ids = make([]int, n)
	for i := range c.ids {
		v, err := ids.varint()
		if err != nil {
			return nil, err
		}
		c.ids[i] = int(v)
	}

	profBuf, err := cd.read("profiles")
	if err != nil {
		return nil, err
	}
	prof := &colBuf{name: "profiles", b: profBuf}
	if c.pool, err = prof.stringPool(); err != nil {
		return nil, err
	}
	if err := prof.count(n); err != nil {
		return nil, err
	}
	c.profIdx = make([]uint32, 5*n)
	for i := range c.profIdx {
		v, err := prof.uvarint()
		if err != nil {
			return nil, err
		}
		if v >= uint64(len(c.pool)) {
			return nil, fmt.Errorf("dataset: section \"profiles\": pool index %d out of range", v)
		}
		c.profIdx[i] = uint32(v)
	}

	flagsBuf, err := cd.read("flags")
	if err != nil {
		return nil, err
	}
	fl := &colBuf{name: "flags", b: flagsBuf}
	if err := fl.count(n); err != nil {
		return nil, err
	}
	if c.flags, err = fl.take(n); err != nil {
		return nil, err
	}

	sessBuf, err := cd.read("sessions")
	if err != nil {
		return nil, err
	}
	sess := &colBuf{name: "sessions", b: sessBuf}
	if err := sess.count(n); err != nil {
		return nil, err
	}
	c.sessionN = make([]int, n)
	total := 0
	for i := range c.sessionN {
		v, err := sess.uvarint()
		if err != nil {
			return nil, err
		}
		if err := checkHandset(i, c.pool[c.profIdx[5*i+4]], int(v)); err != nil {
			return nil, err
		}
		c.sessionN[i] = int(v)
		total += int(v)
	}
	if total != c.sessions {
		return nil, fmt.Errorf("dataset: session counts sum to %d, meta says %d", total, c.sessions)
	}

	decodeMembership := func(name string, dst *membership) error {
		buf, err := cd.read(name)
		if err != nil {
			return err
		}
		cb := &colBuf{name: name, b: buf}
		if err := cb.count(n); err != nil {
			return err
		}
		dst.start = make([]int, n+1)
		// Every member costs at least one byte of the section, so its
		// length bounds the member count: one allocation instead of a
		// growth series.
		dst.flat = make([]uint32, 0, len(buf))
		for i := 0; i < n; i++ {
			k, err := cb.uvarint()
			if err != nil {
				return err
			}
			if k > uint64(c.certs) {
				return fmt.Errorf("dataset: section %q: handset %d claims %d members of a %d-certificate table", name, i, k, c.certs)
			}
			prev := -1
			for j := uint64(0); j < k; j++ {
				d, err := cb.uvarint()
				if err != nil {
					return err
				}
				if d == 0 {
					return fmt.Errorf("dataset: section %q: zero delta (indices must be strictly increasing)", name)
				}
				v := prev + int(d)
				if v >= c.certs {
					return fmt.Errorf("dataset: section %q: certificate index %d out of range", name, v)
				}
				dst.flat = append(dst.flat, uint32(v))
				prev = v
			}
			dst.start[i+1] = len(dst.flat)
		}
		return nil
	}
	if err := decodeMembership("system", &c.system); err != nil {
		return nil, err
	}
	if err := decodeMembership("user", &c.user); err != nil {
		return nil, err
	}

	// apps is optional: files written before the app-profile column load
	// with policy-free devices.
	if cd.has("apps") {
		appsBuf, err := cd.read("apps")
		if err != nil {
			return nil, err
		}
		ab := &colBuf{name: "apps", b: appsBuf}
		appPool, err := ab.stringPool()
		if err != nil {
			return nil, err
		}
		appPoolLen := uint64(len(appPool))
		if err := ab.count(n); err != nil {
			return nil, err
		}
		c.policies = make([][]device.ValidationPolicy, n)
		for i := 0; i < n; i++ {
			k, err := ab.uvarint()
			if err != nil {
				return nil, err
			}
			if k > appPoolLen {
				return nil, fmt.Errorf("dataset: section \"apps\": handset %d claims %d profiles from a %d-name pool", i, k, appPoolLen)
			}
			pols := make([]device.ValidationPolicy, 0, k)
			for j := uint64(0); j < k; j++ {
				idx, err := ab.uvarint()
				if err != nil {
					return nil, err
				}
				if idx >= appPoolLen {
					return nil, fmt.Errorf("dataset: section \"apps\": pool index %d out of range", idx)
				}
				fb, err := ab.take(1)
				if err != nil {
					return nil, err
				}
				pols = append(pols, device.ValidationPolicy{
					App:          appPool[idx],
					AcceptAll:    fb[0]&1 != 0,
					SkipHostname: fb[0]&2 != 0,
					BypassPins:   fb[0]&4 != 0,
				})
			}
			c.policies[i] = pols
		}
	}
	return &c, nil
}

// readColumnar loads dir/handsets.col: the DER table is interned into the
// configured corpus in one bulk call, then handset reconstruction fans out
// through parallel.Accumulate in contiguous shards whose merge order is
// fixed — the assembled population is identical at any worker count.
func readColumnar(ctx context.Context, dir string, cfg config) (*population.Population, error) {
	cd, err := openColumnar(dir)
	if err != nil {
		return nil, err
	}
	defer cd.Close()
	cols, err := decodeColumns(cd)
	if err != nil {
		return nil, err
	}
	refs, err := cfg.corpus.InternAll(cols.ders)
	if err != nil {
		return nil, fmt.Errorf("dataset: interning certificate table: %w", err)
	}

	// Firmware memberships repeat heavily across handsets, so each worker
	// shard assembles one prototype store per distinct membership row and
	// stamps per-handset copies off it with the wholesale Clone — the map is
	// built once per distinct row instead of once per handset. The scratch
	// key buffer makes the cache lookup allocation-free; a key is only
	// retained when a new prototype is inserted.
	type shardState struct {
		protos map[string]*rootstore.Store
		key    []byte
	}
	storeFromRow := func(st *shardState, name string, row []uint32) *rootstore.Store {
		st.key = st.key[:0]
		for _, v := range row {
			st.key = binary.LittleEndian.AppendUint32(st.key, v)
		}
		proto := st.protos[string(st.key)]
		if proto == nil {
			proto = rootstore.NewSized(name, cfg.corpus, len(row))
			for _, ti := range row {
				proto.AddRef(refs[ti])
			}
			st.protos[string(st.key)] = proto
		}
		return proto.Clone(name)
	}
	build := func(i int, st *shardState) *population.Handset {
		prof := device.Profile{
			Model:        cols.pool[cols.profIdx[5*i]],
			Manufacturer: cols.pool[cols.profIdx[5*i+1]],
			Operator:     cols.pool[cols.profIdx[5*i+2]],
			Country:      cols.pool[cols.profIdx[5*i+3]],
			Version:      cols.pool[cols.profIdx[5*i+4]],
		}
		name := prof.Manufacturer + " " + prof.Model
		system := storeFromRow(st, name+" system", cols.system.row(i))
		// The loaded file IS the captured effective membership, so the
		// handset's Store snapshot is materialized here (finalizeHandsets
		// keeps it): with no user certificates it shares the system copy,
		// which nothing mutates after load.
		captured := system
		var user *rootstore.Store
		if usrRow := cols.user.row(i); len(usrRow) > 0 {
			user = storeFromRow(st, name+" user", usrRow)
			captured = system.Clone(name + " effective")
			for _, ti := range usrRow {
				captured.AddRef(refs[ti])
			}
		}
		rooted := cols.flags[i]&1 != 0
		dev := device.Restore(prof, system, user, rooted)
		if cols.policies != nil {
			for _, pol := range cols.policies[i] {
				dev.AddPolicy(pol)
			}
		}
		return &population.Handset{
			ID:              cols.ids[i],
			Profile:         prof,
			Rooted:          rooted,
			RootedExclusive: cols.flags[i]&2 != 0,
			Device:          dev,
			Store:           captured,
			SessionCount:    cols.sessionN[i],
			Intercepted:     cols.flags[i]&4 != 0,
		}
	}
	handsets, err := parallel.Accumulate(ctx, cols.handsets,
		func() []*population.Handset { return nil },
		func(acc []*population.Handset, start, end int) []*population.Handset {
			st := &shardState{protos: map[string]*rootstore.Store{}}
			for i := start; i < end; i++ {
				acc = append(acc, build(i, st))
			}
			return acc
		},
		func(into, from []*population.Handset) []*population.Handset {
			return append(into, from...)
		},
	)
	if err != nil {
		return nil, fmt.Errorf("dataset: assembling handsets: %w", err)
	}
	return population.Assemble(cfg.universe, handsets), nil
}

// inspectColumnar summarizes dir/handsets.col from its header and meta
// section; with full set it reads and CRC-checks every section and decodes
// every column, so truncation and bit-flips anywhere in the file surface.
func inspectColumnar(dir string, full bool) (*Info, error) {
	cd, err := openColumnar(dir)
	if err != nil {
		return nil, err
	}
	defer cd.Close()
	info := &Info{Format: Columnar, Bytes: cd.size, Sections: cd.sections}
	if full {
		cols, err := decodeColumns(cd)
		if err != nil {
			return nil, err
		}
		info.Handsets, info.Certs, info.Sessions = cols.handsets, cols.certs, cols.sessions
	} else if err := cd.readMeta(&info.Handsets, &info.Certs, &info.Sessions); err != nil {
		return nil, err
	}
	return info, nil
}
