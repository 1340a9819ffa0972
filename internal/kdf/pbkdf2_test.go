package kdf

import (
	"bytes"
	"crypto/sha1"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"testing/quick"
)

// RFC 6070 test vectors for PBKDF2-HMAC-SHA1.
var rfc6070 = []struct {
	password, salt string
	iter, keyLen   int
	want           string
}{
	{"password", "salt", 1, 20, "0c60c80f961f0e71f3a9b524af6012062fe037a6"},
	{"password", "salt", 2, 20, "ea6c014dc72d6f8ccd1ed92ace1d41f0d8de8957"},
	{"password", "salt", 4096, 20, "4b007901b765489abead49d926f721d065a429c1"},
	{"passwordPASSWORDpassword", "saltSALTsaltSALTsaltSALTsaltSALTsalt", 4096, 25,
		"3d2eec4fe41c849b80c8d83662c0e44a8b291a964cf2f07038"},
	{"pass\x00word", "sa\x00lt", 4096, 16, "56fa6aa75548099dcc37d7f03425e0c3"},
}

func TestSHA1KeyRFC6070(t *testing.T) {
	for i, tc := range rfc6070 {
		got := SHA1Key([]byte(tc.password), []byte(tc.salt), tc.iter, tc.keyLen)
		if hex.EncodeToString(got) != tc.want {
			t.Errorf("vector %d: got %x, want %s", i, got, tc.want)
		}
	}
}

// Published PBKDF2-HMAC-SHA256 vectors (from the RFC 7914 era test suites).
var sha256Vectors = []struct {
	password, salt string
	iter, keyLen   int
	want           string
}{
	{"password", "salt", 1, 32,
		"120fb6cffcf8b32c43e7225256c4f837a86548c92ccc35480805987cb70be17b"},
	{"password", "salt", 2, 32,
		"ae4d0c95af6b46d32d0adff928f06dd02a303f8ef3c251dfd6e2d85a95474c43"},
	{"password", "salt", 4096, 32,
		"c5e478d59288c841aa530db6845c4c8d962893a001ce4e11a4963873aa98134a"},
	{"passwordPASSWORDpassword", "saltSALTsaltSALTsaltSALTsaltSALTsalt", 4096, 40,
		"348c89dbcbd32b2f32d814b8116e84cf2b17347ebc1800181c4e2a1fb8dd53e1c635518c7dac47e9"},
}

func TestSHA256KeyVectors(t *testing.T) {
	for i, tc := range sha256Vectors {
		got := SHA256Key([]byte(tc.password), []byte(tc.salt), tc.iter, tc.keyLen)
		if hex.EncodeToString(got) != tc.want {
			t.Errorf("vector %d: got %x, want %s", i, got, tc.want)
		}
	}
}

func TestKeyLengthExact(t *testing.T) {
	for _, n := range []int{0, 1, 31, 32, 33, 64, 100} {
		got := SHA256Key([]byte("pw"), []byte("salt"), 3, n)
		if len(got) != n {
			t.Errorf("keyLen %d: got %d bytes", n, len(got))
		}
	}
}

func TestKeyDeterministic(t *testing.T) {
	a := SHA256Key([]byte("pw"), []byte("salt"), 100, 32)
	b := SHA256Key([]byte("pw"), []byte("salt"), 100, 32)
	if !bytes.Equal(a, b) {
		t.Fatal("same inputs produced different keys")
	}
}

func TestKeyPasswordSensitivity(t *testing.T) {
	a := SHA256Key([]byte("pw1"), []byte("salt"), 100, 32)
	b := SHA256Key([]byte("pw2"), []byte("salt"), 100, 32)
	if bytes.Equal(a, b) {
		t.Fatal("different passwords produced identical keys")
	}
}

func TestKeySaltSensitivity(t *testing.T) {
	a := SHA256Key([]byte("pw"), []byte("salt1"), 100, 32)
	b := SHA256Key([]byte("pw"), []byte("salt2"), 100, 32)
	if bytes.Equal(a, b) {
		t.Fatal("different salts produced identical keys")
	}
}

func TestKeyIterSensitivity(t *testing.T) {
	a := SHA256Key([]byte("pw"), []byte("salt"), 100, 32)
	b := SHA256Key([]byte("pw"), []byte("salt"), 101, 32)
	if bytes.Equal(a, b) {
		t.Fatal("different iteration counts produced identical keys")
	}
}

func TestKeyPanicsOnBadIter(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for iter=0")
		}
	}()
	Key([]byte("pw"), []byte("s"), 0, 16, sha256.New)
}

func TestKeyPanicsOnNegativeLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for keyLen<0")
		}
	}()
	Key([]byte("pw"), []byte("s"), 1, -1, sha256.New)
}

// Property: a prefix of a longer derived key equals the shorter derived key
// (PBKDF2 block structure guarantees this).
func TestKeyPrefixProperty(t *testing.T) {
	f := func(pw, salt []byte, short, extra uint8) bool {
		s := int(short%64) + 1
		l := s + int(extra%64)
		a := SHA256Key(pw, salt, 2, s)
		b := SHA256Key(pw, salt, 2, l)
		return bytes.Equal(a, b[:s])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: derived keys for distinct (password, salt) pairs collide with
// negligible probability.
func TestKeyInjectiveProperty(t *testing.T) {
	seen := map[string][2]string{}
	f := func(pw, salt []byte) bool {
		k := hex.EncodeToString(SHA256Key(pw, salt, 2, 32))
		prev, ok := seen[k]
		if ok && (prev[0] != string(pw) || prev[1] != string(salt)) {
			return false
		}
		seen[k] = [2]string{string(pw), string(salt)}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSHA256Key64k(b *testing.B) {
	pw, salt := []byte("correct horse battery staple"), []byte("0123456789abcdef")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SHA256Key(pw, salt, 65536, 32)
	}
}

// SHA1Key derives a key with PBKDF2-HMAC-SHA1, for checking Key against the
// RFC 6070 vectors.
func SHA1Key(password, salt []byte, iter, keyLen int) []byte {
	return Key(password, salt, iter, keyLen, sha1.New)
}
