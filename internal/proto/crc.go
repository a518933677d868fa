package proto

import "errors"

// ErrChecksumMismatch marks a fetched file whose combined block CRCs
// disagree with the server's whole-file checksum (or whose blocks do
// not tile the requested range): the bytes arrived and were
// acknowledged, but the content is wrong. Callers that can re-fetch
// should — corruption is transient where a transport error may not be —
// and the executor does exactly that, re-queueing the file against the
// retry budget without tearing down the (healthy) channel.
var ErrChecksumMismatch = errors.New("proto: checksum mismatch")

// CRC combination for striped transfers. The server computes one
// CRC-32C over each file as it reads it sequentially; the client
// receives the file as out-of-order blocks across parallel streams, so
// it cannot feed a single running hash. Instead it hashes each block
// independently and merges the results with the standard GF(2)
// matrix-based crc32_combine construction (as in zlib): appending m
// bytes to a message multiplies its CRC state by the m-th power of the
// "advance one zero byte" linear operator.

// crc32Poly is the reflected Castagnoli polynomial, matching
// crc32.MakeTable(crc32.Castagnoli).
const crc32Poly = 0x82F63B78

// gf2MatrixTimes multiplies the GF(2) matrix by the vector.
func gf2MatrixTimes(mat *crc32Op, vec uint32) uint32 {
	var sum uint32
	for i := 0; vec != 0; i++ {
		if vec&1 != 0 {
			sum ^= mat[i]
		}
		vec >>= 1
	}
	return sum
}

// gf2MatrixSquare sets square = mat².
func gf2MatrixSquare(square, mat *crc32Op) {
	for i := range mat {
		square[i] = gf2MatrixTimes(mat, mat[i])
	}
}

// crc32Op is the precomputed GF(2) operator that advances a CRC-32C
// state across a fixed number of zero bytes. Building one costs
// O(log n) matrix squarings; applying it is a single matrix-vector
// multiply (~32 XORs), so hot paths that combine many equal-length
// blocks — the server's block-tiled serve path — pay the expensive
// part once per length instead of once per block.
type crc32Op [32]uint32

// makeCRC32Op builds the advance-n-zero-bytes operator. n must be
// positive.
func makeCRC32Op(n int64) crc32Op {
	var even, odd crc32Op

	// odd = operator for one zero bit.
	odd[0] = crc32Poly
	row := uint32(1)
	for i := 1; i < 32; i++ {
		odd[i] = row
		row <<= 1
	}
	// even = operator for two zero bits; odd := four, and so on.
	gf2MatrixSquare(&even, &odd)
	gf2MatrixSquare(&odd, &even)

	// out accumulates the product of the squarings selected by n's
	// bits, starting from the identity.
	var out crc32Op
	for i := range out {
		out[i] = 1 << i
	}
	cur, next := &odd, &even
	for ; n > 0; n >>= 1 {
		gf2MatrixSquare(next, cur)
		cur, next = next, cur
		if n&1 != 0 {
			var prod crc32Op
			for i := range prod {
				prod[i] = gf2MatrixTimes(cur, out[i])
			}
			out = prod
		}
	}
	return out
}

// combine returns the CRC of A‖B given crc(A), crc(B), where the
// operator was built for len(B).
func (op *crc32Op) combine(crc1, crc2 uint32) uint32 {
	return gf2MatrixTimes(op, crc1) ^ crc2
}

// CRC32CCombine returns the CRC-32C of the concatenation A‖B given
// crc(A), crc(B) and len(B). It runs in O(log len2) matrix operations;
// callers combining many blocks of one length should build the
// operator once with makeCRC32Op and apply it per block instead.
func CRC32CCombine(crc1, crc2 uint32, len2 int64) uint32 {
	if len2 <= 0 {
		return crc1
	}
	op := makeCRC32Op(len2)
	return op.combine(crc1, crc2)
}

// blockCRC is one received block's integrity record.
type blockCRC struct {
	off int64
	n   int64
	crc uint32
}

// combineBlocks merges per-block CRCs into the whole-file CRC-32C. The
// blocks must tile [0, total) exactly once; the slice is sorted in
// place. It returns ok=false if the tiling has gaps or overlaps.
func combineBlocks(blocks []blockCRC, total int64) (uint32, bool) {
	sortBlocks(blocks)
	var crc uint32
	var pos int64
	// Striped transfers produce runs of equal-length blocks, so the
	// advance operator is rebuilt only when the length changes (in
	// practice: once, plus once for the file's tail block).
	var op crc32Op
	opLen := int64(-1)
	for _, b := range blocks {
		if b.n == 0 {
			continue // contributes nothing and tiles nowhere
		}
		if b.off != pos {
			return 0, false
		}
		if b.n != opLen {
			op = makeCRC32Op(b.n)
			opLen = b.n
		}
		crc = op.combine(crc, b.crc)
		pos += b.n
	}
	return crc, pos == total
}

// sortBlocks is an insertion sort: block lists arrive nearly sorted
// (round-robin striping), where insertion sort is O(n).
func sortBlocks(blocks []blockCRC) {
	for i := 1; i < len(blocks); i++ {
		for j := i; j > 0 && blocks[j].off < blocks[j-1].off; j-- {
			blocks[j], blocks[j-1] = blocks[j-1], blocks[j]
		}
	}
}
