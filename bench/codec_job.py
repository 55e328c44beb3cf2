"""Round-trip sentences through the range coder, as a user script would.

    python codec_job.py MODEL SENTENCES OUT

Loads a trained model, snapshots it, then for each line of SENTENCES encodes
its arabic-numeric image with adapt on and decodes it again. OUT receives, per
sentence, the blob as written by ``EncodedBlob.to_bytes`` and the decoded
symbols, each preceded by its length as a 4-byte big-endian integer. The
caller checks OUT; this script only does the work being timed.
"""

import struct
import sys

from bitextverify.coder import EncodedBlob, decode, encode
from bitextverify.ppm import PpmModel
from bitextverify.preprocess import ARABIC_NUMERIC, apply_transform


def main(model_path: str, sentences_path: str, out_path: str) -> int:
    model = PpmModel.load(model_path).snapshot()
    with open(sentences_path, encoding="utf-8") as fh:
        texts = [apply_transform(line.rstrip("\n"), ARABIC_NUMERIC) for line in fh]
    with open(out_path, "wb") as out:
        for data in texts:
            blob = encode(model, data).to_bytes()
            decoded = decode(model, EncodedBlob.from_bytes(blob))
            for chunk in (blob, decoded):
                out.write(struct.pack(">I", len(chunk)) + chunk)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
