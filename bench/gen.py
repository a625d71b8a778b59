"""Seeded input generator for the luxnorm benchmark (stdlib only).

Every input file of every workload is a pure function of (workload, seed):
the same seed gives byte-identical files, another seed gives other files
of the same shape. Shapes that drive run time (sentence counts, length
schedules, the number of expensive non-alphabet tokens) are fixed per
workload, so that run time varies little from seed to seed.

The files use the program's documented formats (variant dictionary TSV,
lexicon TSV, one sentence per line) and are read back through the
program's public loaders. The generator never imports the program: its
tokenization rule for the suite vocabulary is a copy of the documented
one, so a change to the program cannot change the inputs.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("synth-corpus", "normalize-noisy", "eval-long", "run-suite")

# Per-workload sizes.
SIZES = {
    "synth-corpus": {"lexicon": 20000, "lemmas": 10000, "sentences": 20000},
    "normalize-noisy": {"lexicon": 10000, "lemmas": 5000, "sentences": 120},
    "eval-long": {"lexicon": 20000, "lemmas": 10000, "sentences": 24},
    "run-suite": {"lexicon": 10000, "lemmas": 5000, "sentences": 120},
}

# Noisy text: exact share of tokens replaced by an attested dictionary
# variant, and by an unseen one- or two-edit misspelling. No word takes
# more than MAX_ERRORS_PER_WORD of them, so the number of distinct error
# types, which sets the normalizer's work, does not vary with the seed.
VARIANT_RATE = 0.08
MISSPELL_RATE = 0.06
MAX_ERRORS_PER_WORD = 1
ALL_CAPS_RATE = 0.01
CLITIC_RATE = 0.04
COMMA_RATE = 0.06
QUOTE_RATE = 0.05  # per sentence
# Tokens with digits, '-' or "'" (dates, compounds); per 1000 sentences.
NONALPHA_PER_1000 = 4

# Predictions for eval-long: exact shares of how a plausible normalizer
# treats the tokens.
FIX_RATE = 0.85
MISCORRECT_RATE = 0.01
DROP_RATE = 0.01

_ONSETS = ["", "b", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t", "w", "z",
           "sch", "st", "kr", "gr", "br", "fr", "bl", "dr", "kl", "tr"]
_NUCLEI = ["a", "e", "i", "o", "u", "ä", "ë", "é", "ö", "ü", "ie", "ou", "ee", "aa", "ei", "éi"]
_CODAS = ["", "", "n", "r", "l", "s", "t", "ch", "ng", "m", "k", "nn", "ss", "ff"]
_EDIT_LETTERS = "abdefghiklmnorstuwzäëéöü"
_SWAPS = {"ä": "e", "e": "ä", "ë": "e", "é": "e", "ö": "e", "ü": "i", "i": "ie", "ie": "i",
          "aa": "a", "a": "aa", "ee": "e", "ou": "o", "ss": "s", "nn": "n", "ff": "f"}

# The program's documented tokenization: split on whitespace, detach these
# characters from token edges, keep article clitics attached.
_PUNCT = '.,!?;:„“"()'
_CLITIC_RE = re.compile(r"^([dDlLmMtTzZ]')(?=.)")


def split_tokens(sentence: str) -> list[str]:
    tokens: list[str] = []
    for chunk in sentence.split():
        lead = len(chunk) - len(chunk.lstrip(_PUNCT))
        core = chunk.strip(_PUNCT)
        tail = len(chunk) - lead - len(core)
        tokens.extend(chunk[:lead])
        if core:
            tokens.append(core)
        tokens.extend(chunk[len(chunk) - tail:] if tail else "")
    return tokens


def strip_clitic(token: str) -> str:
    match = _CLITIC_RE.match(token)
    return token[match.end():] if match else token


class Zipf:
    """Draws items with probability proportional to 1 / rank**s."""

    def __init__(self, items: list[str], s: float = 1.07):
        self.items = items
        total = 0.0
        self.cum: list[float] = []
        for rank in range(len(items)):
            total += 1.0 / (rank + 1) ** s
            self.cum.append(total)

    def draw(self, rng: random.Random, k: int = 1) -> list[str]:
        return rng.choices(self.items, cum_weights=self.cum, k=k)


def make_word(rng: random.Random) -> str:
    return "".join(
        rng.choice(_ONSETS) + rng.choice(_NUCLEI) + rng.choice(_CODAS)
        for _ in range(rng.choice((1, 1, 2, 2, 2, 3)))
    )


def misspell(rng: random.Random, word: str, edits: int) -> str:
    """Apply `edits` spelling errors of the kinds seen in real text."""
    for _ in range(edits):
        kind = rng.randrange(4)
        pos = rng.randrange(len(word))
        if kind == 0:
            for src, dst in _SWAPS.items():
                at = word.find(src, pos)
                if at >= 0:
                    word = word[:at] + dst + word[at + len(src):]
                    break
            else:
                kind = 1
        if kind == 1:
            word = word[:pos] + rng.choice(_EDIT_LETTERS) + word[pos + 1:]
        elif kind == 2 and len(word) > 3:
            word = word[:pos] + word[pos + 1:]
        elif kind == 3:
            word = word[:pos] + word[pos] + word[pos:]
    return word


@dataclass
class World:
    """Lexicon, variant dictionary and per-word misspellings for one seed."""

    lexicon: dict[str, int]
    dictionary: dict[str, dict[str, int]]
    misspellings: dict[str, str]
    zipf: Zipf


def make_world(rng: random.Random, size: int, lemmas: int, forbidden: set[str]) -> World:
    """Lexicon with Zipf counts, a variant dictionary over its most
    frequent `lemmas` words, and one unseen misspelling per word.

    Variants and misspellings are never lexicon forms (case-folded), and
    no generated form case-folds into `forbidden`.
    """
    words: list[str] = []
    folded: set[str] = set(forbidden)
    while len(words) < size:
        word = make_word(rng)
        if len(word) < 2 or word.casefold() in folded:
            continue
        folded.add(word.casefold())
        words.append(word.capitalize() if rng.random() < 0.3 else word)
    # Frequent words tend to be short.
    words.sort(key=lambda w: len(w) + rng.uniform(0.0, 6.0))
    lexicon = {word: max(1, int(1_000_000 / (rank + 1) ** 1.07)) for rank, word in enumerate(words)}
    taken = set(folded)

    def fresh_misspelling(word: str) -> str:
        for attempt in range(200):
            # Short words have few free misspellings: allow more edits.
            candidate = misspell(rng, word, rng.choice((1, 1, 2)) + attempt // 20)
            if candidate.casefold() not in taken and len(candidate) >= 2:
                taken.add(candidate.casefold())
                return candidate
        raise RuntimeError(f"no misspelling found for {word!r}")

    dictionary: dict[str, dict[str, int]] = {}
    for word in words[:lemmas]:
        variants = {fresh_misspelling(word): rng.randint(1, 200) for _ in range(rng.randint(1, 3))}
        if rng.random() < 0.3:
            variants[word] = rng.randint(50, 500)
        dictionary[word] = variants
    misspellings = {word: fresh_misspelling(word) for word in words}
    return World(lexicon, dictionary, misspellings, Zipf(words))


def _nonalpha_token(rng: random.Random, world: World, kind: int) -> str:
    """Fixed-length tokens outside the letter alphabet: their edit-route
    cost depends on length, so lengths do not vary with the seed."""
    if kind == 0:
        return f"{rng.randint(1950, 2049)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
    pick = [w for w in world.zipf.draw(rng, 40) if len(w) == 5]
    while len(pick) < 2:
        pick.append("".join(rng.choice(_EDIT_LETTERS) for _ in range(5)))
    if kind == 1:
        return pick[0].capitalize() + "-" + pick[1].lower()
    return pick[0].lower() + "'" + pick[1][:3].lower()


def _pick(rng: random.Random, candidates: list, count: int) -> set:
    """Exactly `count` of the candidates (all of them if there are fewer)."""
    return set(rng.sample(candidates, min(count, len(candidates))))


def make_gold(rng: random.Random, world: World, lengths: list[int], nonalpha: int) -> list[list[str]]:
    """Standard sentences of the given token lengths, drawn by word
    frequency; `nonalpha` of them get one date, compound or apostrophe
    token."""
    gold = [world.zipf.draw(rng, length) for length in lengths]
    for kind, index in enumerate(rng.sample(range(len(gold)), min(nonalpha, len(gold)))):
        gold[index][rng.randrange(1, len(gold[index]))] = _nonalpha_token(rng, world, kind % 3)
    return gold


def add_noise(rng: random.Random, world: World, gold: list[list[str]]) -> list[list[str]]:
    """Replace exactly VARIANT_RATE of all tokens by an attested variant
    and MISSPELL_RATE by the word's unseen misspelling, 1:1.

    No word takes more than MAX_ERRORS_PER_WORD errors, so that a few
    frequent error types cannot dominate the scores of a run.
    """
    order = [(s, i) for s, tokens in enumerate(gold) for i in range(len(tokens))]
    want_variant = round(VARIANT_RATE * len(order))
    want_misspell = round(MISSPELL_RATE * len(order))
    rng.shuffle(order)
    used: dict[str, int] = {}
    noisy = [list(tokens) for tokens in gold]
    for s, i in order:
        word = gold[s][i]
        if used.get(word, 0) >= MAX_ERRORS_PER_WORD:
            continue
        variants = [v for v in world.dictionary.get(word, ()) if v != word]
        if want_variant and variants:
            noisy[s][i] = rng.choice(variants)
            want_variant -= 1
        elif want_misspell and word in world.misspellings:
            noisy[s][i] = world.misspellings[word]
            want_misspell -= 1
        else:
            continue
        used[word] = used.get(word, 0) + 1
    return noisy


@dataclass
class NoisyCorpus:
    noisy: list[str]
    gold: list[str]


def make_noisy_corpus(
    rng: random.Random, world: World, lengths: list[int], nonalpha: int
) -> NoisyCorpus:
    """Gold sentences of the given token lengths and their noisy versions,
    with the same casing, clitics and punctuation on both sides."""
    gold = make_gold(rng, world, lengths, nonalpha)
    pairs = [_decorate(rng, g, n) for g, n in zip(gold, add_noise(rng, world, gold))]
    return NoisyCorpus([n for _, n in pairs], [g for g, _ in pairs])


def _decorate(rng: random.Random, gold: list[str], noisy: list[str]) -> tuple[str, str]:
    """Add casing, clitics and punctuation identically to both sides."""
    gold, noisy = list(gold), list(noisy)
    for i in range(len(gold)):
        if rng.random() < ALL_CAPS_RATE:
            gold[i], noisy[i] = gold[i].upper(), noisy[i].upper()
        elif rng.random() < CLITIC_RATE and gold[i][:1].isalpha():
            clitic = rng.choice(("d'", "l'"))
            gold[i], noisy[i] = clitic + gold[i], clitic + noisy[i]
        if i < len(gold) - 1 and rng.random() < COMMA_RATE:
            gold[i] += ","
            noisy[i] += ","
    if rng.random() < QUOTE_RATE and len(gold) > 3:
        start = rng.randrange(1, len(gold) - 1)
        end = min(len(gold) - 2, start + rng.randrange(2))
        for side in (gold, noisy):
            side[start] = '"' + side[start]
            side[end] = side[end].rstrip(",") + '"'
    end_mark = rng.choice(".....?!")
    for side in (gold, noisy):
        side[0] = side[0][:1].upper() + side[0][1:]
        side[-1] += end_mark
    return " ".join(gold), " ".join(noisy)


def make_predictions(rng: random.Random, world: World, corpus: NoisyCorpus) -> list[str]:
    """A plausible normalizer's output for each noisy sentence: FIX_RATE of
    the errors fixed, and exact shares of miscorrections and of deleted
    tokens, each deletion paired with an insertion."""
    sentences = [(n.split(" "), g.split(" ")) for n, g in zip(corpus.noisy, corpus.gold)]
    positions = [(s, i) for s, (noisy, _) in enumerate(sentences) for i in range(len(noisy))]
    total = len(positions)
    wrong = [(s, i) for s, i in positions if sentences[s][0][i] != sentences[s][1][i]]
    fixed = _pick(rng, wrong, round(FIX_RATE * len(wrong)))
    wrong_set = set(wrong)
    right = [(s, i) for s, i in positions if (s, i) not in wrong_set and sentences[s][0][i].isalpha()]
    miscorrected = _pick(rng, right, round(MISCORRECT_RATE * total))
    dropped = _pick(rng, [(s, i) for s, i in positions if i > 0], round(DROP_RATE * total))
    # One insertion per deletion, in the same sentence: every predicted
    # sentence keeps its length, so the alignment work does not vary.
    inserted = Counter((s, rng.randrange(len(sentences[s][0]))) for s, _ in sorted(dropped))
    predicted: list[str] = []
    for s, (noisy, gold) in enumerate(sentences):
        out: list[str] = []
        for i, token in enumerate(noisy):
            if (s, i) in fixed:
                out.append(gold[i])
            elif (s, i) in miscorrected:
                out.append(misspell(rng, token, 1))
            elif (s, i) not in dropped:
                out.append(token)
            out.extend(world.zipf.draw(rng, inserted[(s, i)]))
        predicted.append(" ".join(out))
    return predicted


def length_schedule(rng: random.Random, count: int, low: int, high: int, skew: float) -> list[int]:
    """`count` lengths on a fixed quantile grid, shuffled by the seed.

    The multiset of lengths is the same for every seed; skew < 1 puts more
    of them near `high`.
    """
    lengths = [low + int((high - low) * ((i + 0.5) / count) ** skew + 0.5) for i in range(count)]
    rng.shuffle(lengths)
    return lengths


def suite_vocabulary(suite_path: Path) -> tuple[dict[str, int], dict[str, str]]:
    """Gold vocabulary of the checklist suite (clitic-free cores) and a map
    from each CORRECT unit's misspelled core to its expected core."""
    vocabulary: dict[str, int] = {}
    fixes: dict[str, str] = {}
    for line in suite_path.read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        _category, setup, sentence, index, expected, _gloss, _prov = line.split("\t")
        tokens = split_tokens(sentence)
        if setup == "CORRECT":
            target = int(index)
            fixes[strip_clitic(tokens[target])] = strip_clitic(expected)
            tokens[target] = expected
        for token in tokens:
            if token.strip(_PUNCT):
                core = strip_clitic(token)
                vocabulary[core] = vocabulary.get(core, 0) + 50
    return vocabulary, fixes


def write_tsv(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for row in rows:
            handle.write("\t".join(str(field) for field in row) + "\n")


def write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


@dataclass
class Inputs:
    """Paths of one workload's generated files plus its size."""

    workload: str
    seed: int
    directory: Path
    files: dict[str, Path]
    sentences: int
    tokens: int


def generate(workload: str, seed: int, directory: Path, suite_path: Path) -> Inputs:
    """Write the inputs of `workload` for `seed` into `directory`."""
    if workload not in SIZES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"luxnorm-bench:{workload}:{seed}")
    size = SIZES[workload]
    sentences = size["sentences"]
    directory.mkdir(parents=True, exist_ok=True)
    files: dict[str, Path] = {}
    forbidden: set[str] = set()
    extra_lexicon: dict[str, int] = {}
    extra_dictionary: dict[str, dict[str, int]] = {}
    if workload == "run-suite":
        extra_lexicon, fixes = suite_vocabulary(suite_path)
        forbidden = {w.casefold() for w in (*extra_lexicon, *fixes)}
        for wrong, right in fixes.items():
            extra_dictionary.setdefault(right, {})[wrong] = 10
    world = make_world(rng, size["lexicon"], size["lemmas"], forbidden)
    for word, count in extra_lexicon.items():
        world.lexicon[word] = world.lexicon.get(word, 0) + count
    for lemma, variants in extra_dictionary.items():
        world.dictionary.setdefault(lemma, {}).update(variants)
    files["dictionary"] = directory / "variants.tsv"
    write_tsv(files["dictionary"], (
        (lemma, variant, count)
        for lemma, variants in world.dictionary.items() for variant, count in variants.items()
    ))
    if workload != "synth-corpus":
        files["lexicon"] = directory / "lexicon.tsv"
        write_tsv(files["lexicon"], world.lexicon.items())

    if workload == "synth-corpus":
        gold = make_gold(rng, world, length_schedule(rng, sentences, 5, 25, 1.0), 0)
        lines = [_decorate(rng, tokens, tokens)[0] for tokens in gold]
        files["corpus"] = directory / "standard.txt"
        write_lines(files["corpus"], lines)
    elif workload in ("normalize-noisy", "run-suite"):
        nonalpha = max(1, sentences * NONALPHA_PER_1000 // 1000) if workload == "normalize-noisy" else 0
        corpus = make_noisy_corpus(rng, world, length_schedule(rng, sentences, 5, 15, 1.0), nonalpha)
        lines = corpus.noisy
        files["noisy"] = directory / "noisy.txt"
        files["gold"] = directory / "gold.txt"
        write_lines(files["noisy"], corpus.noisy)
        write_lines(files["gold"], corpus.gold)
    else:
        corpus = make_noisy_corpus(rng, world, length_schedule(rng, sentences, 5, 60, 0.8), 0)
        lines = corpus.noisy
        files["original"] = directory / "original.txt"
        files["predicted"] = directory / "predicted.txt"
        files["gold"] = directory / "gold.txt"
        write_lines(files["original"], corpus.noisy)
        write_lines(files["predicted"], make_predictions(rng, world, corpus))
        write_lines(files["gold"], corpus.gold)
    tokens = sum(len(split_tokens(line)) for line in lines)
    return Inputs(workload, seed, directory, files, len(lines), tokens)


def suite_path(src: Path) -> Path:
    """The checklist suite shipped in the program's source tree."""
    return src / "luxnorm" / "data" / "mft_suite.tsv"
