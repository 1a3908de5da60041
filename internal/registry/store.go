// Package registry is the model lifecycle subsystem: a versioned
// on-disk store of trained ENMC artifacts plus an in-process manager
// that loads candidate versions off the request path, gates them
// behind a canary validation (the candidate's screened recall@5 at the
// served m against its own classifier, relative to the serving
// model's, on a held-out probe set), and hot-swaps the serving backend
// with zero dropped requests — in-flight batches finish on the old
// version, which is retired only after its last reference drains.
//
// On-disk layout under a registry root:
//
//	<root>/<version>/manifest.json   — shapes, precision, seq, parent,
//	                                   SHA-256 + size per artifact
//	<root>/<version>/classifier.bin  — core.Classifier (ENMCCLS1)
//	<root>/<version>/screener.bin    — core.Screener  (ENMCSCR3)
//	<root>/<version>/probe.bin       — held-out probe features
//	                                   (ENMCFEA1, optional)
//	<root>/.tmp-*                    — in-flight publishes (atomic
//	                                   os.Rename into place)
//
// A version directory is immutable once published: Publish stages
// into a temp dir and renames, so readers never observe a partial
// version, and Load re-hashes every artifact against the manifest so
// a corrupted or tampered file is rejected before it can serve.
package registry

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"enmc/internal/core"
	"enmc/internal/quant"
)

// Artifact file names inside a version directory.
const (
	ManifestFile   = "manifest.json"
	ClassifierFile = "classifier.bin"
	ScreenerFile   = "screener.bin"
	ProbeFile      = "probe.bin"
)

// FileInfo pins one artifact's identity in the manifest.
type FileInfo struct {
	SHA256 string `json:"sha256"`
	Size   int64  `json:"size"`
}

// TrainMeta records how a version was produced, for provenance.
type TrainMeta struct {
	Epochs    int     `json:"epochs,omitempty"`
	Samples   int     `json:"samples,omitempty"`
	FinalLoss float64 `json:"final_loss,omitempty"`
}

// Manifest describes one published model version.
type Manifest struct {
	// Version is the directory name; any path-safe string.
	Version string `json:"version"`
	// Seq totally orders versions within a root (Latest = max Seq);
	// Publish assigns the next Seq when left zero.
	Seq int `json:"seq"`
	// Parent names the version this one was trained from ("" for a
	// from-scratch run).
	Parent string `json:"parent,omitempty"`
	// CreatedUnix is the publish time in Unix seconds.
	CreatedUnix int64 `json:"created_unix"`

	// Model shapes and screener quantization, duplicated from the
	// binary artifacts so operators (and the manager's compatibility
	// check) can read them without decoding weights.
	Categories int    `json:"categories"`
	Hidden     int    `json:"hidden"`
	Reduced    int    `json:"reduced"`
	Precision  int    `json:"precision_bits"`
	PerTensor  bool   `json:"per_tensor,omitempty"`
	Seed       uint64 `json:"seed"`

	Files map[string]FileInfo `json:"files"`
	Train TrainMeta           `json:"train,omitempty"`
}

// PrecisionString renders the screener precision, e.g. "INT4".
func (m Manifest) PrecisionString() string { return quant.Bits(m.Precision).String() }

// Loaded is a fully verified, decoded model version ready to serve.
type Loaded struct {
	Manifest   Manifest
	Classifier *core.Classifier
	Screener   *core.Screener
	// Probe is the held-out probe feature set shipped with the
	// version (nil when the version has none).
	Probe [][]float32
}

// Store is a versioned model registry rooted at one directory.
type Store struct {
	root string
}

// Open opens (creating if needed) a registry root.
func Open(root string) (*Store, error) {
	if root == "" {
		return nil, fmt.Errorf("registry: empty root")
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	return &Store{root: root}, nil
}

// Root returns the registry root directory.
func (s *Store) Root() string { return s.root }

// Dir returns the directory a version lives in.
func (s *Store) Dir(version string) string { return filepath.Join(s.root, version) }

func validVersion(v string) error {
	if v == "" || strings.HasPrefix(v, ".") || strings.ContainsAny(v, `/\`) {
		return fmt.Errorf("registry: invalid version name %q", v)
	}
	return nil
}

// CanPublish reports why version cannot be published — an invalid
// name, or a version already published — or nil. Publish makes the
// same check; a caller makes it first to refuse before training.
func (s *Store) CanPublish(version string) error {
	if err := validVersion(version); err != nil {
		return err
	}
	if _, err := os.Stat(s.Dir(version)); err == nil {
		return fmt.Errorf("registry: version %q already published", version)
	}
	return nil
}

// Publish writes a new immutable version: artifacts are staged into a
// temp directory, hashed into the manifest, and renamed into place in
// one atomic step — a crashed publish leaves only a .tmp-* directory
// that never becomes visible to Versions/Load. probe may be nil.
// m.Seq, when zero, is assigned one past the current latest.
func (s *Store) Publish(m Manifest, cls *core.Classifier, scr *core.Screener, probe [][]float32) (Manifest, error) {
	if err := s.CanPublish(m.Version); err != nil {
		return m, err
	}
	if cls == nil || scr == nil {
		return m, fmt.Errorf("registry: nil classifier or screener")
	}
	if m.CreatedUnix == 0 {
		m.CreatedUnix = time.Now().Unix()
	}
	if m.Seq == 0 {
		vs, err := s.Versions()
		if err != nil {
			return m, err
		}
		for _, v := range vs {
			if v.Seq >= m.Seq {
				m.Seq = v.Seq + 1
			}
		}
		if m.Seq == 0 {
			m.Seq = 1
		}
	}
	m.Categories = scr.Cfg.Categories
	m.Hidden = scr.Cfg.Hidden
	m.Reduced = scr.Cfg.Reduced
	m.Precision = int(scr.Cfg.Precision)
	m.PerTensor = scr.Cfg.PerTensor
	m.Seed = scr.Cfg.Seed
	m.Files = map[string]FileInfo{}

	tmp, err := os.MkdirTemp(s.root, ".tmp-"+m.Version+"-")
	if err != nil {
		return m, fmt.Errorf("registry: %w", err)
	}
	defer os.RemoveAll(tmp) // no-op after a successful rename

	write := func(name string, emit func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(tmp, name))
		if err != nil {
			return err
		}
		h := sha256.New()
		if err := emit(io.MultiWriter(f, h)); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		st, err := os.Stat(filepath.Join(tmp, name))
		if err != nil {
			return err
		}
		m.Files[name] = FileInfo{SHA256: hex.EncodeToString(h.Sum(nil)), Size: st.Size()}
		return nil
	}
	if err := write(ClassifierFile, func(w io.Writer) error { _, err := cls.WriteTo(w); return err }); err != nil {
		return m, fmt.Errorf("registry: writing classifier: %w", err)
	}
	if err := write(ScreenerFile, func(w io.Writer) error { _, err := scr.WriteTo(w); return err }); err != nil {
		return m, fmt.Errorf("registry: writing screener: %w", err)
	}
	if len(probe) > 0 {
		if err := write(ProbeFile, func(w io.Writer) error { _, err := core.WriteFeatures(w, probe); return err }); err != nil {
			return m, fmt.Errorf("registry: writing probe: %w", err)
		}
	}

	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return m, err
	}
	if err := os.WriteFile(filepath.Join(tmp, ManifestFile), append(buf, '\n'), 0o644); err != nil {
		return m, fmt.Errorf("registry: writing manifest: %w", err)
	}
	if err := os.Rename(tmp, s.Dir(m.Version)); err != nil {
		return m, fmt.Errorf("registry: publishing %q: %w", m.Version, err)
	}
	return m, nil
}

// ReadManifest reads one version's manifest without touching the
// (large) artifacts.
func (s *Store) ReadManifest(version string) (Manifest, error) {
	var m Manifest
	if err := validVersion(version); err != nil {
		return m, err
	}
	buf, err := os.ReadFile(filepath.Join(s.Dir(version), ManifestFile))
	if err != nil {
		return m, fmt.Errorf("registry: version %q: %w", version, err)
	}
	if err := json.Unmarshal(buf, &m); err != nil {
		return m, fmt.Errorf("registry: version %q: bad manifest: %w", version, err)
	}
	if m.Version != version {
		return m, fmt.Errorf("registry: manifest in %q names version %q", version, m.Version)
	}
	// Artifacts live in the version directory: a listed name that is
	// a path would send Verify outside it.
	for name := range m.Files {
		if name == "." || name == ".." || name != filepath.Base(name) {
			return m, fmt.Errorf("registry: version %q: manifest lists file %q", version, name)
		}
	}
	return m, nil
}

// Versions lists every published version, ordered by Seq (ties by
// name). Hidden directories (.tmp-*) are skipped.
func (s *Store) Versions() ([]Manifest, error) {
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	var out []Manifest
	for _, e := range entries {
		if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		m, err := s.ReadManifest(e.Name())
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seq != out[j].Seq {
			return out[i].Seq < out[j].Seq
		}
		return out[i].Version < out[j].Version
	})
	return out, nil
}

// Latest returns the manifest with the highest Seq.
func (s *Store) Latest() (Manifest, error) {
	vs, err := s.Versions()
	if err != nil {
		return Manifest{}, err
	}
	if len(vs) == 0 {
		return Manifest{}, fmt.Errorf("registry: no versions under %s", s.root)
	}
	return vs[len(vs)-1], nil
}

// Verify re-hashes every artifact named in the manifest against its
// recorded checksum and size, without decoding.
func (s *Store) Verify(version string) error {
	m, err := s.ReadManifest(version)
	if err != nil {
		return err
	}
	for name, want := range m.Files {
		if err := s.checkFile(version, name, want); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) checkFile(version, name string, want FileInfo) error {
	f, err := os.Open(filepath.Join(s.Dir(version), name))
	if err != nil {
		return fmt.Errorf("registry: version %q: %w", version, err)
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return fmt.Errorf("registry: version %q: hashing %s: %w", version, name, err)
	}
	if n != want.Size {
		return fmt.Errorf("registry: version %q: %s is %d bytes, manifest says %d", version, name, n, want.Size)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want.SHA256 {
		return fmt.Errorf("registry: version %q: %s checksum mismatch (corrupted artifact)", version, name)
	}
	return nil
}

// Load verifies and decodes a version. Every artifact is re-hashed
// against the manifest before decoding, so a corrupted file can never
// reach the serving path.
func (s *Store) Load(version string) (*Loaded, error) {
	m, err := s.ReadManifest(version)
	if err != nil {
		return nil, err
	}
	read := func(name string, required bool, decode func(io.Reader) error) error {
		want, ok := m.Files[name]
		if !ok {
			if required {
				return fmt.Errorf("registry: version %q: manifest lists no %s", version, name)
			}
			return nil
		}
		if err := s.checkFile(version, name, want); err != nil {
			return err
		}
		f, err := os.Open(filepath.Join(s.Dir(version), name))
		if err != nil {
			return fmt.Errorf("registry: version %q: %w", version, err)
		}
		defer f.Close()
		if err := decode(f); err != nil {
			return fmt.Errorf("registry: version %q: decoding %s: %w", version, name, err)
		}
		return nil
	}

	out := &Loaded{Manifest: m}
	if err := read(ClassifierFile, true, func(r io.Reader) error {
		cls, err := core.ReadClassifier(r)
		out.Classifier = cls
		return err
	}); err != nil {
		return nil, err
	}
	if err := read(ScreenerFile, true, func(r io.Reader) error {
		scr, err := core.ReadScreener(r)
		out.Screener = scr
		return err
	}); err != nil {
		return nil, err
	}
	if err := read(ProbeFile, false, func(r io.Reader) error {
		probe, err := core.ReadFeatures(r)
		out.Probe = probe
		return err
	}); err != nil {
		return nil, err
	}

	if out.Classifier.Categories() != m.Categories || out.Classifier.Hidden() != m.Hidden {
		return nil, fmt.Errorf("registry: version %q: classifier %dx%d does not match manifest %dx%d",
			version, out.Classifier.Categories(), out.Classifier.Hidden(), m.Categories, m.Hidden)
	}
	if out.Screener.Cfg.Categories != m.Categories || out.Screener.Cfg.Hidden != m.Hidden ||
		out.Screener.Cfg.Reduced != m.Reduced {
		return nil, fmt.Errorf("registry: version %q: screener shape does not match manifest", version)
	}
	return out, nil
}
