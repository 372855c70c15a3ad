#!/usr/bin/env python3
"""Parse a JAMS file and poke around the document.

Everything the file says is preserved: numbers keep their exact source
spelling (0.459 stays "0.459", never 0.45899999...), metadata fields keep
the absent/empty distinction, and sandboxes ride along untouched.
"""

from pathlib import Path

from muse_anno import detect_modality_hint, parse_jams

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def main() -> None:
    doc = parse_jams((FIXTURES / "bohemian_rhapsody.jams").read_bytes())

    fm = doc.file_metadata
    print(f"{fm.artist} - {fm.title}  ({fm.duration}s, JAMS {fm.jams_version})")
    hint = detect_modality_hint(doc)
    print(f"modality hint: {hint.value if hint else 'unknown'}")
    print()

    for block in doc.annotations:
        md = block.annotation_metadata
        print(f"namespace {block.namespace!r}, curated by {md.curator_name} "
              f"({md.corpus})")
        for row in block.data:
            end = row.time + row.duration
            print(f"  {row.time:>7} .. {end:>7}  {row.value:<10} "
                  f"confidence={row.confidence}")

    # Decimal fidelity: the float view is available, but equality checks
    # in this package always go through the exact lexical form.
    first = doc.annotations[0].data[0]
    print()
    print(f"exact duration: {first.duration}   as float: {float(first.duration)}")


if __name__ == "__main__":
    main()
