package rootstore

import (
	"crypto/x509"
	"encoding/pem"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"tangledmass/internal/certid"
	"tangledmass/internal/corpus"
)

// Android keeps its system root store as a directory of PEM files, one per
// root, named <subject-hash>.<n> where <subject-hash> is the 32-bit OpenSSL
// subject hash and <n> disambiguates collisions (footnote 2 of the paper:
// /system/etc/security/cacerts). These functions read and write that layout
// so the device simulator and the CLI interoperate with the real format.

const pemCertType = "CERTIFICATE"

// WriteCacertsDir writes the store to dir in Android cacerts layout,
// creating dir if needed. Existing files in dir are left alone; callers that
// want a clean image should start from an empty directory.
func WriteCacertsDir(dir string, s *Store) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("rootstore: creating cacerts dir: %w", err)
	}
	used := make(map[string]bool)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("rootstore: listing cacerts dir: %w", err)
	}
	for _, e := range entries {
		used[e.Name()] = true
	}
	for _, cert := range s.Certificates() {
		hash := certid.SubjectHashString(cert)
		name := ""
		for n := 0; ; n++ {
			candidate := hash + "." + strconv.Itoa(n)
			if !used[candidate] {
				name = candidate
				used[candidate] = true
				break
			}
		}
		block := pem.EncodeToMemory(&pem.Block{Type: pemCertType, Bytes: cert.Raw})
		if err := os.WriteFile(filepath.Join(dir, name), block, 0o644); err != nil {
			return fmt.Errorf("rootstore: writing %s: %w", name, err)
		}
	}
	return nil
}

// ReadCacertsDir loads every <hash>.<n> PEM file from dir into a new store
// named after the directory. Files that are not valid hash.N names or do not
// parse as certificates yield an error: a malformed system store is a
// security-relevant condition, not something to skip silently.
func ReadCacertsDir(dir string) (*Store, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("rootstore: reading cacerts dir: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	s := New(filepath.Base(dir))
	for _, name := range names {
		if !validCacertsName(name) {
			return nil, fmt.Errorf("rootstore: %s: not a <hash>.<n> cacerts file name", name)
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("rootstore: reading %s: %w", name, err)
		}
		certs, err := ParsePEMCertificates(data)
		if err != nil {
			return nil, fmt.Errorf("rootstore: %s: %w", name, err)
		}
		if len(certs) == 0 {
			return nil, fmt.Errorf("rootstore: %s: no certificate in file", name)
		}
		for _, c := range certs {
			s.Add(c)
		}
	}
	return s, nil
}

func validCacertsName(name string) bool {
	dot := strings.LastIndexByte(name, '.')
	if dot != 8 {
		return false
	}
	for _, c := range name[:8] {
		if !strings.ContainsRune("0123456789abcdef", c) {
			return false
		}
	}
	if _, err := strconv.Atoi(name[dot+1:]); err != nil {
		return false
	}
	return true
}

// ParsePEMCertificates parses every CERTIFICATE block in data through the
// shared corpus, so a bundle loaded twice costs one parse.
func ParsePEMCertificates(data []byte) ([]*x509.Certificate, error) {
	refs, err := corpus.ParsePEM(data)
	if err != nil {
		return nil, fmt.Errorf("rootstore: parsing PEM bundle: %w", err)
	}
	return corpus.Shared().Certs(refs), nil
}
