"""Java-aware identifier splitting and word segmentation.

Comments that quote code carry camel-case identifiers a natural-language
tokenizer cannot use. The one preprocessing step applied in this pipeline
inserts spaces at case boundaries (lower->upper, and before the final
capital of an acronym run). Everything else, including punctuation and
casing, is preserved byte-for-byte, so the transformation is idempotent.
"""

from satdkit import segment_words, split_identifiers

examples = [
    "new CharParserForJavaOrSomething();",
    "// ClassLoader parentLoader = Thread.currentThread().getContextClassLoader();",
    "getHTTPResponseCode",
    "utf8To16",            # digit boundaries are not split
    "// FRICKIN' HACK!!!!!",
]

print("identifier splitting:")
for text in examples:
    print(f"  {text}")
    print(f"    -> {split_identifiers(text)}")

print("\nidempotence: splitting already-split text changes nothing:")
once = split_identifiers(examples[0])
twice = split_identifiers(once)
print(f"  once : {once}")
print(f"  twice: {twice}")
assert once == twice

print("\nword segmentation (comment markers and empty brackets become words):")
for text in ["// TODO fix()", "/* hack */", "and/or fix();", "//TODO: read this"]:
    words = segment_words(split_identifiers(text))
    print(f"  {text!r:28} -> {words}")
