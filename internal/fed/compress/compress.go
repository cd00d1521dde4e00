// Package compress owns the federation push body encoding: gzip at
// BestSpeed. A body cut off at any byte decodes to a prefix of the
// original, because compress/flate hands out everything it decoded
// before it returns the error; fed.ReadExport then keeps the newest
// checkpoint committed inside that prefix.
package compress

import (
	"compress/flate"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// ContentEncoding is the HTTP Content-Encoding token of a push body.
const ContentEncoding = "gzip"

// Decode failures. Errors of the underlying reader pass through.
var (
	// ErrTruncated: the stream was torn; what was read is a prefix.
	ErrTruncated = errors.New("compress: input truncated before end of stream")
	// ErrCorrupt: a bad header, a checksum mismatch or invalid deflate.
	ErrCorrupt = errors.New("compress: corrupt input")
)

// NewWriter returns a gzip writer at BestSpeed; Close writes the trailer.
func NewWriter(w io.Writer) *gzip.Writer {
	zw, _ := gzip.NewWriterLevel(w, gzip.BestSpeed) // a valid level cannot fail
	return zw
}

// NewReader decodes a stream written by NewWriter. The header is read
// on the first Read, so an empty or torn header is ErrTruncated there.
func NewReader(r io.Reader) io.Reader { return &reader{r: r} }

type reader struct {
	r   io.Reader
	z   *gzip.Reader
	err error // sticky header failure
}

func (d *reader) Read(p []byte) (n int, err error) {
	if d.z == nil && d.err == nil {
		if d.z, d.err = gzip.NewReader(d.r); d.err == io.EOF {
			d.err = io.ErrUnexpectedEOF // an empty body is a cut at offset 0
		}
	}
	if err = d.err; err == nil {
		n, err = d.z.Read(p)
	}
	var ce flate.CorruptInputError
	switch {
	case err == io.ErrUnexpectedEOF:
		return n, ErrTruncated
	case errors.Is(err, gzip.ErrHeader), errors.Is(err, gzip.ErrChecksum), errors.As(err, &ce):
		return n, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return n, err
}
