// Package kdf implements the PBKDF2 password-based key derivation function
// from RFC 2898 / RFC 8018 using HMAC as the pseudo-random function.
//
// PBKDF2 is not part of the Go standard library; the MyProxy repository uses
// it to derive the symmetric keys that seal stored credentials with the
// user-chosen pass phrase (paper §5.1: "the repository encrypts the
// credentials that it holds with the pass phrase provided by the user").
package kdf

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"hash"
)

// Key derives a key of keyLen bytes from the password and salt using
// iter iterations of HMAC with the hash constructor h, per RFC 8018 §5.2.
//
// The salt should be random and at least 8 bytes; iter should be large
// enough that a brute-force attack against a dumped repository is slow
// (the repository defaults to 64k iterations, see internal/credstore).
//
// The result is key material: a caller that does not keep it must wipe it
// (pki.WipeBytes) once the derived key has been used, and registers it with
// pki.Transient so tests can check that it did.
func Key(password, salt []byte, iter, keyLen int, h func() hash.Hash) []byte {
	if iter < 1 {
		panic("kdf: iteration count must be >= 1")
	}
	if keyLen < 0 {
		panic("kdf: negative key length")
	}
	prf := hmac.New(h, password)
	hLen := prf.Size()
	numBlocks := (keyLen + hLen - 1) / hLen

	dk := make([]byte, 0, numBlocks*hLen)
	var block [4]byte
	u := make([]byte, hLen)
	t := make([]byte, hLen)
	for i := 1; i <= numBlocks; i++ {
		// U_1 = PRF(password, salt || INT_32_BE(i))
		prf.Reset()
		prf.Write(salt)
		binary.BigEndian.PutUint32(block[:], uint32(i))
		prf.Write(block[:])
		u = prf.Sum(u[:0])
		copy(t, u)
		// U_j = PRF(password, U_{j-1}); T_i = U_1 xor ... xor U_iter
		for j := 2; j <= iter; j++ {
			prf.Reset()
			prf.Write(u)
			u = prf.Sum(u[:0])
			for k := range t {
				t[k] ^= u[k]
			}
		}
		dk = append(dk, t...)
	}
	return dk[:keyLen]
}

// SHA256Key derives a key with PBKDF2-HMAC-SHA256, the repository default.
func SHA256Key(password, salt []byte, iter, keyLen int) []byte {
	return Key(password, salt, iter, keyLen, sha256.New)
}
