package ecc

import "photonoc/internal/bits"

// encode and decode are the tests' allocating conveniences over the Code
// contract's in-place pair: each call returns a fresh result vector sized
// for c, so the size checks of EncodeInto and DecodeInto still apply to the
// input.
func encode(c Code, data bits.Vector) (bits.Vector, error) {
	word := bits.New(c.N())
	return word, c.EncodeInto(word, data)
}

func decode(c Code, word bits.Vector) (bits.Vector, DecodeInfo, error) {
	data := bits.New(c.K())
	info, err := c.DecodeInto(data, word)
	return data, info, err
}
