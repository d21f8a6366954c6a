"""The word-class matcher, a test oracle: it compares curve words with
diagram words up to reversal, the curated identities of the degree
arithmetic, braid exchanges aba -> bab and boundary slides, written on
crossing-position letters with an encoding of its own.  Only the
identities feed a bound, so the package makes no braid exchange and no
slide.  Not collected by pytest.
"""

from collections import deque
from itertools import groupby

from lexiknot import planereduce
from lexiknot.planereduce import PlaneWord, canonical_runs, normalize_runs


def letters_to_runs_by_groupby(letters, trail0):
    """The run word of a crossing-position sequence: a leading zero when
    the first crossing sits in the even position, and the trailing marker."""
    lead = [0] if letters and letters[0] == 1 else []
    return normalize_runs(tuple(lead + [len(list(g)) for _, g in groupby(letters)] + [0] * trail0))


def runs_to_letters(runs):
    """Crossing positions in x-order: 0 for odd slots, 1 for even slots."""
    out = []
    for i, r in enumerate(runs):
        out.extend([i % 2] * r)
    return tuple(out)


def braid_rewrites_by_letters(runs):
    """aba -> bab on three consecutive alternating crossings; the trailing
    marker toggles when the last crossing changes position."""
    letters = runs_to_letters(runs)
    trail0 = bool(runs) and runs[-1] == 0
    out = set()
    for j in range(len(letters) - 2):
        a, b, c = letters[j : j + 3]
        if a == c != b:
            new = letters[:j] + (b, a, b) + letters[j + 3 :]
            out.add(letters_to_runs_by_groupby(new, trail0 ^ (new[-1] != letters[-1])))
    return out


def boundary_slides_by_letters(runs):
    """Flip every crossing after the first, or the last crossing alone,
    keeping the trailing marker; the word itself is not a slide."""
    letters = runs_to_letters(runs)
    if not letters:
        return set()
    trail0 = runs[-1] == 0
    out = {
        letters_to_runs_by_groupby((letters[0],) + tuple(1 - p for p in letters[1:]), trail0),
        letters_to_runs_by_groupby(letters[:-1] + (1 - letters[-1],), trail0),
    }
    out.discard(normalize_runs(runs))
    return out


def neighbors(w):
    """Words one crossing-preserving move away from w: normalization,
    reversal, the curated identities (of whichever image is canonical),
    braid exchanges and boundary slides."""
    out = set()
    runs = normalize_runs(w.runs)
    for img in (runs, runs[::-1]):
        out.add(img)
        out.update(braid_rewrites_by_letters(img), planereduce._PARTNERS.get(img, ()), boundary_slides_by_letters(img))
    out.discard(w.runs)
    return {PlaneWord(r) for r in out}


def same_word_class(w1, w2):
    """Whether two words are linked by `neighbors` moves: a breadth-first
    search from w1 that stops once it reaches w2."""
    goal, start = canonical_runs(w2.runs), canonical_runs(w1.runs)
    seen, queue = {start}, deque([start])
    while queue and goal not in seen:
        for nb in neighbors(PlaneWord(queue.popleft())):
            key = canonical_runs(nb.runs)
            if key not in seen:
                seen.add(key)
                queue.append(key)
    return goal in seen
