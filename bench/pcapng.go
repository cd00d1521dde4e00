package main

import (
	"bufio"
	"encoding/binary"
)

// The repository reads pcapng but does not write it; these two
// functions write the minimal little-endian form — one section header,
// one Ethernet interface with the default microsecond resolution, one
// enhanced packet block per frame — for netpkt.pcapng_ns_per_pkt. A write error stays in the bufio.Writer
// and surfaces at the caller's Flush.

func writePcapNGHeader(w *bufio.Writer) {
	le := binary.LittleEndian
	shb := make([]byte, 28)
	le.PutUint32(shb[0:], 0x0A0D0D0A)
	le.PutUint32(shb[4:], 28)
	le.PutUint32(shb[8:], 0x1A2B3C4D)
	le.PutUint16(shb[12:], 1) // version 1.0
	le.PutUint64(shb[16:], ^uint64(0))
	le.PutUint32(shb[24:], 28)
	w.Write(shb)

	idb := make([]byte, 20)
	le.PutUint32(idb[0:], 1)
	le.PutUint32(idb[4:], 20)
	le.PutUint16(idb[8:], 1) // LINKTYPE_ETHERNET
	le.PutUint32(idb[12:], 0xffff)
	le.PutUint32(idb[16:], 20)
	w.Write(idb)
}

func writePcapNGPacket(w *bufio.Writer, frame []byte, tsUS uint64) {
	le := binary.LittleEndian
	pad := (4 - len(frame)%4) % 4
	total := uint32(32 + len(frame) + pad)
	var hdr [28]byte
	le.PutUint32(hdr[0:], 6)
	le.PutUint32(hdr[4:], total)
	le.PutUint32(hdr[8:], 0) // interface 0
	le.PutUint32(hdr[12:], uint32(tsUS>>32))
	le.PutUint32(hdr[16:], uint32(tsUS))
	le.PutUint32(hdr[20:], uint32(len(frame)))
	le.PutUint32(hdr[24:], uint32(len(frame)))
	w.Write(hdr[:])
	w.Write(frame)
	var tail [8]byte
	le.PutUint32(tail[pad:], total)
	w.Write(tail[:pad+4])
}
