package vfs

import (
	"bytes"
	"testing"
)

// A publisher's buffer adopted via WriteShared must survive any later
// in-place rewrite of the file: Write unshares (copy-on-write) before
// mutating, so the published bytes stay byte-identical.
func TestWriteSharedCopyOnWriteProtectsPublisher(t *testing.T) {
	fs := newFS()
	if err := fs.MkdirAll("/sdcard/Download", 0, ModeShared); err != nil {
		t.Fatal(err)
	}
	published := []byte("published-apk-image-bytes")
	pristine := append([]byte(nil), published...)
	const path = "/sdcard/Download/app.apk"
	if err := fs.WriteFileShared(path, published, 0, ModeShared); err != nil {
		t.Fatal(err)
	}

	// Attacker-style in-place overwrite through a plain write handle (no
	// truncation — the exact path that used to scribble on the alias).
	h, err := fs.Open(path, 0, FlagWrite, ModeShared)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write([]byte("EVIL")); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(published, pristine) {
		t.Fatalf("publisher's shared buffer mutated by in-place write:\n got %q\nwant %q", published, pristine)
	}
	got, err := fs.ReadFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte("EVIL"), pristine[4:]...)
	if !bytes.Equal(got, want) {
		t.Fatalf("file content after overwrite: got %q want %q", got, want)
	}
}

// Truncation drops the adopted buffer entirely, so a rewrite-from-scratch
// (WriteFile with FlagTrunc) never touches the publisher's bytes either.
func TestWriteSharedTruncateDropsAdoptedBuffer(t *testing.T) {
	fs := newFS()
	if err := fs.MkdirAll("/sdcard/Download", 0, ModeShared); err != nil {
		t.Fatal(err)
	}
	published := []byte("shared-original-content")
	pristine := append([]byte(nil), published...)
	const path = "/sdcard/Download/app.apk"
	if err := fs.WriteFileShared(path, published, 0, ModeShared); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(path, []byte("replacement"), 0, ModeShared); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(published, pristine) {
		t.Fatalf("publisher's shared buffer mutated by truncating rewrite:\n got %q\nwant %q", published, pristine)
	}
	// The replacement file is private again: growing it in place must not
	// alias anything shared.
	h, err := fs.Open(path, 0, FlagWrite|FlagAppend, ModeShared)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write([]byte("-grown")); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "replacement-grown" {
		t.Fatalf("file content: got %q want %q", got, "replacement-grown")
	}
}

// stageTwoChunks opens path for a download and writes buf's first two
// 4-byte chunks with WriteShared, checking that the second extended the
// adopted view in place instead of copying.
func stageTwoChunks(t *testing.T, fs *FS, path string, buf []byte) *Handle {
	t.Helper()
	h, err := fs.Open(path, 0, FlagWrite|FlagCreate|FlagTrunc, ModeShared)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range [][]byte{buf[:4], buf[4:8]} {
		if _, err := h.WriteShared(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if n := h.node; !n.shared || len(n.data) != 8 || &n.data[0] != &buf[0] || cap(n.data) != 8 {
		t.Fatalf("two contiguous chunks: shared=%v len=%d cap=%d aliased=%v, want an 8-byte capped view of the buffer",
			n.shared, len(n.data), cap(n.data), len(n.data) > 0 && &n.data[0] == &buf[0])
	}
	return h
}

// A download's zero-copy view never survives a write that is not the next
// contiguous slice of the same buffer: each such write unshares the file,
// leaves the publisher's bytes untouched, and the download's next chunk
// copies too.
func TestWriteSharedExtensionNeverSurvivesForeignWrite(t *testing.T) {
	const path = "/sdcard/Download/app.apk"
	cases := []struct {
		name  string
		write func(t *testing.T, fs *FS, h *Handle, buf []byte)
		want  string
	}{
		{"in-place 1-byte Write", func(t *testing.T, fs *FS, _ *Handle, _ []byte) {
			w, err := fs.Open(path, 0, FlagWrite, ModeShared)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write([]byte("E")); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}, "Eublished-ho"},
		{"WriteShared of a different buffer", func(t *testing.T, _ *FS, h *Handle, _ []byte) {
			if _, err := h.WriteShared([]byte("-evil")); err != nil {
				t.Fatal(err)
			}
		}, "publishe-evild-ho"},
		{"WriteShared of a non-contiguous slice", func(t *testing.T, _ *FS, h *Handle, buf []byte) {
			if _, err := h.WriteShared(buf[12:16]); err != nil {
				t.Fatal(err)
			}
		}, "publishest-bd-ho"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := newFS()
			if err := fs.MkdirAll("/sdcard/Download", 0, ModeShared); err != nil {
				t.Fatal(err)
			}
			buf := []byte("published-host-bytes")
			pristine := append([]byte(nil), buf...)
			h := stageTwoChunks(t, fs, path, buf)
			tc.write(t, fs, h, buf)
			if h.node.shared || &h.node.data[0] == &buf[0] {
				t.Fatalf("file still shares the publisher's buffer after the write")
			}
			// The download carries on with the buffer's next chunk, which
			// must copy into the now-private file.
			if _, err := h.WriteShared(buf[8:12]); err != nil {
				t.Fatal(err)
			}
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
			if h.node.shared {
				t.Fatal("a later contiguous chunk re-shared the file")
			}
			if !bytes.Equal(buf, pristine) {
				t.Fatalf("publisher's buffer mutated: got %q want %q", buf, pristine)
			}
			got, err := fs.ReadFile(path, 0)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.want {
				t.Fatalf("file content %q, want %q", got, tc.want)
			}
		})
	}
}

// Truncation, removal and a filesystem reset each leave the node with no
// reference to an adopted buffer.
func TestAdoptedBufferReleased(t *testing.T) {
	const path = "/sdcard/Download/app.apk"
	cases := []struct {
		name    string
		release func(t *testing.T, fs *FS)
	}{
		{"truncate", func(t *testing.T, fs *FS) {
			h, err := fs.Open(path, 0, FlagWrite|FlagTrunc, ModeShared)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
		}},
		{"remove", func(t *testing.T, fs *FS) {
			if err := fs.Remove(path, 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"arena reset", func(_ *testing.T, fs *FS) { fs.Reset() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := newFS()
			if err := fs.MkdirAll("/sdcard/Download", 0, ModeShared); err != nil {
				t.Fatal(err)
			}
			buf := []byte("published-host-bytes")
			h := stageTwoChunks(t, fs, path, buf)
			n := h.node
			tc.release(t, fs)
			if n.data != nil || n.shared {
				t.Fatalf("node after %s: %d bytes, shared=%v; want no buffer", tc.name, len(n.data), n.shared)
			}
		})
	}
}
