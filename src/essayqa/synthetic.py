"""Seeded generator of essay/requirement pairs.

The real student-essay corpus this engine targets is not redistributable, so
experiments run on a surrogate with the same structural properties: short
learner essays (3-8 sentences), requirement questions written from the
examiner's perspective, long sentence-level answers (25-100 characters), an
exact configurable answerable ratio, and optional learner-style grammar
noise.  Essays are built in groups of three requirements per essay, the
shape of real prompt sheets.

Two disjoint template banks exist: "domain" (school-life task requirements)
and "general" (encyclopedia-style questions over invented facts), so that
transfer between a general and a domain corpus can be studied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import GoldAnswer, QAExample
from .errors import ValidationError


@dataclass(frozen=True)
class Template:
    name: str
    requirement: str          # examiner perspective, may contain {slot}
    response: str             # examinee sentence, no trailing period
    slots: dict[str, tuple[str, ...]]
    fillers: dict[str, tuple[str, ...]]  # slots used only in the response


DOMAIN_TEMPLATES = (
    Template(
        name="change-reason",
        requirement="explain why you need to change the {thing}",
        response="I need to change the {thing} because {reason}",
        slots={"thing": ("time", "date", "plan", "meeting")},
        fillers={"reason": (
            "my cousin will visit us that day",
            "I must help my parents at home",
            "our teacher moved the lesson",
            "my bus arrives very late on that day",
        )},
    ),
    Template(
        name="meeting-place",
        requirement="remind {friend} where you arranged to meet",
        response="remember that we arranged to meet {place}",
        slots={"friend": ("Sally", "Alice", "Tom", "Ben")},
        fillers={"place": (
            "near the school gate",
            "at the corner cafe",
            "by the old library",
            "in the market square",
        )},
    ),
    Template(
        name="future-activity",
        requirement="tell {friend} what you will do in the {period}",
        response="in the {period} I will {activity}",
        slots={
            "friend": ("Sally", "Alice", "Tom", "Ben"),
            "period": ("summer vacation", "winter holiday", "autumn break"),
        },
        fillers={"activity": (
            "travel to Japan with my family",
            "learn to swim at the sports centre",
            "visit my grandparents in the village",
            "paint pictures of the old town",
        )},
    ),
    Template(
        name="event-time",
        requirement="say when the {event} will take place",
        response="the {event} will take place {when}",
        slots={"event": ("programme", "concert", "match", "festival")},
        fillers={"when": (
            "on Friday evening at six o'clock",
            "next Monday after the lessons",
            "at the end of this month",
            "on the first day of May",
        )},
    ),
    Template(
        name="filming-subject",
        requirement="tell {friend} who or what they filmed",
        response="they filmed {subject}",
        slots={"friend": ("Sally", "Alice", "Tom", "Ben")},
        fillers={"subject": (
            "our science class and the new gym",
            "the school garden and two teachers",
            "my classmates during the art lesson",
            "the library and the music room",
        )},
    ),
    Template(
        name="school-chosen",
        requirement="explain why the {org} chose your school",
        response="the {org} chose my school because {merit}",
        slots={"org": ("TV company", "newspaper", "film crew", "radio station")},
        fillers={"merit": (
            "our students won the city prize",
            "it has a famous history club",
            "the building is very old and beautiful",
            "our choir sings on television",
        )},
    ),
    Template(
        name="new-time",
        requirement="suggest a new time to meet on {day}",
        response="let us meet at {hour} on {day} instead",
        slots={"day": ("Tuesday", "Thursday", "Saturday")},
        fillers={"hour": (
            "four o'clock in the afternoon",
            "ten in the morning",
            "half past five",
        )},
    ),
    Template(
        name="favourite",
        requirement="say which {category} you like best",
        response="the {category} I like best is {choice}",
        slots={"category": ("subject", "sport", "season")},
        fillers={"choice": (
            "history because of the stories",
            "basketball with my friends",
            "summer when we swim every day",
            "drawing quietly in the park",
        )},
    ),
)

GENERAL_TEMPLATES = (
    Template(
        name="capital",
        requirement="what is the capital of {country}",
        response="the capital of {country} is the busy city of {capital}",
        slots={"country": ("Atlandia", "Borvia", "Cestria", "Dalmora")},
        fillers={"capital": ("Port Vela", "New Karis", "Stonebridge", "Fairhaven")},
    ),
    Template(
        name="author",
        requirement="who wrote the famous {work}",
        response="the famous {work} was written by {author} long ago",
        slots={"work": ("river poem", "winter novel", "stone ballad")},
        fillers={"author": (
            "a quiet monk from the hills",
            "a travelling merchant's daughter",
            "an old soldier of the coast guard",
        )},
    ),
    Template(
        name="event-date",
        requirement="when did the {event} of {country} happen",
        response="the {event} of {country} happened {when} according to the records",
        slots={
            "event": ("great flood", "first census", "long drought"),
            "country": ("Atlandia", "Borvia", "Cestria", "Dalmora"),
        },
        fillers={"when": (
            "almost two hundred years ago",
            "at the start of the iron age",
            "during the reign of the third queen",
        )},
    ),
    Template(
        name="location",
        requirement="where is the {landmark} located",
        response="the {landmark} is located {where} near the northern coast",
        slots={"landmark": ("glass tower", "salt bridge", "round temple")},
        fillers={"where": (
            "on a small rocky island",
            "beside the deepest lake",
            "behind the western cliffs",
        )},
    ),
    Template(
        name="river-length",
        requirement="how long is the {river} river",
        response="the {river} river is about {length} from the spring to the sea",
        slots={"river": ("Maren", "Toli", "Veska")},
        fillers={"length": (
            "nine hundred kilometres long",
            "four hundred kilometres long",
            "six hundred kilometres long",
        )},
    ),
    Template(
        name="trade",
        requirement="which goods did {country} trade",
        response="the goods {country} traded were mostly {goods}",
        slots={"country": ("Atlandia", "Borvia", "Cestria", "Dalmora")},
        fillers={"goods": (
            "dried fish and carved amber",
            "wool cloth and copper rings",
            "honey wine and cedar planks",
        )},
    ),
)

DOMAIN_FILLERS = (
    "Last week my class visited the city museum.",
    "My little brother plays football after school.",
    "We usually eat lunch together in the big hall.",
    "The weather here has been rainy for many days.",
    "Our homework this term is quite difficult.",
    "I often ride my bicycle along the river path.",
    "My best friend lives two streets away from me.",
    "On Sundays we help our neighbours in the garden.",
    "The school bus leaves very early in the morning.",
    "I am learning to cook simple meals with my mother.",
    "Everyone in my family enjoys reading at night.",
    "The new student from the other town is very kind.",
)

GENERAL_FILLERS = (
    "The region has many small villages and farms.",
    "Travellers often describe the roads as narrow.",
    "Local markets open at dawn throughout the year.",
    "Historians still argue about the missing maps.",
    "The climate is mild except in the far north.",
    "Fishing remains an important trade for the coast.",
    "Several bridges cross the valley at its widest point.",
    "The archive keeps letters from early settlers.",
    "Stone walls divide most of the older fields.",
    "Merchants once carried salt across the mountains.",
)

BANKS = {
    "domain": (DOMAIN_TEMPLATES, DOMAIN_FILLERS),
    "general": (GENERAL_TEMPLATES, GENERAL_FILLERS),
}


# The surrogate's fixed shape: requirements per essay (one prompt sheet),
# the sentence-count band of an essay body and the answer length band.
REQUIREMENTS_PER_ESSAY = 3
SENTENCES_PER_ESSAY = (3, 8)
ANSWER_LEN_BAND = (25, 100)


@dataclass(frozen=True)
class SyntheticConfig:
    count: int
    answerable_ratio: float = 0.6
    seed: int = 0
    bank: str = "domain"
    noise_rate: float = 0.0
    id_prefix: str = "syn"

    def __post_init__(self):
        if self.count <= 0:
            raise ValidationError("count must be positive")
        if not 0.0 <= self.answerable_ratio <= 1.0:
            raise ValidationError("answerable_ratio must be in [0, 1]")
        if self.bank not in BANKS:
            raise ValidationError(f"unknown template bank {self.bank!r}")
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ValidationError("noise_rate must be in [0, 1]")


def _fill(template_text: str, values: dict[str, str]) -> str:
    out = template_text
    for key, val in values.items():
        out = out.replace("{" + key + "}", val)
    return out


def _capitalize(sentence: str) -> str:
    return sentence[0].upper() + sentence[1:] if sentence else sentence


_NOISE_ARTICLES = (" the ", " a ", " an ")


def _add_noise(sentence: str, rng: np.random.Generator) -> str:
    """Learner-style noise: drop one article, or break is/are agreement."""
    choice = rng.integers(0, 2)
    if choice == 0:
        for art in _NOISE_ARTICLES:
            idx = sentence.find(art)
            if idx >= 0:
                return sentence[:idx] + " " + sentence[idx + len(art):]
    if " is " in sentence:
        return sentence.replace(" is ", " are ", 1)
    if " are " in sentence:
        return sentence.replace(" are ", " is ", 1)
    for art in _NOISE_ARTICLES:
        idx = sentence.find(art)
        if idx >= 0:
            return sentence[:idx] + " " + sentence[idx + len(art):]
    return sentence


def _pick(rng: np.random.Generator, options: tuple[str, ...]) -> str:
    return options[int(rng.integers(0, len(options)))]


def generate_synthetic(cfg: SyntheticConfig) -> list[QAExample]:
    """Deterministically build `cfg.count` (essay, question) examples.

    Exactly round(count * answerable_ratio) examples are answerable: flags
    are assigned up front and shuffled, then essays are built to embed a
    responsive sentence for precisely their answerable requirements.
    """
    rng = np.random.default_rng(cfg.seed)
    templates, fillers = BANKS[cfg.bank]

    n_answerable = int(round(cfg.count * cfg.answerable_ratio))
    flags = np.zeros(cfg.count, dtype=bool)
    flags[:n_answerable] = True
    rng.shuffle(flags)

    examples: list[QAExample] = []
    index = 0
    while index < cfg.count:
        group = min(REQUIREMENTS_PER_ESSAY, cfg.count - index)
        chosen = rng.choice(len(templates), size=group, replace=False)
        parts: list[tuple[Template, dict[str, str], bool]] = []
        for j in range(group):
            t = templates[int(chosen[j])]
            values = {k: _pick(rng, opts) for k, opts in t.slots.items()}
            values.update({k: _pick(rng, opts) for k, opts in t.fillers.items()})
            parts.append((t, values, bool(flags[index + j])))

        # Build the essay: responsive sentences for answerable parts plus
        # fillers, shuffled into a 3-8 sentence body.  Sentences carry the
        # index of the part they respond to (or None for fillers) so gold
        # offsets survive noise and reordering.
        responses: list[tuple[str, int]] = []
        for j, (t, values, answerable) in enumerate(parts):
            if answerable:
                sent = _capitalize(_fill(t.response, values))
                lo, hi = ANSWER_LEN_BAND
                if not lo <= len(sent) <= hi:
                    raise ValidationError(
                        f"template {t.name!r} produced a {len(sent)}-char answer "
                        f"outside the {lo}-{hi} band: {sent!r}"
                    )
                responses.append((sent + ".", j))
        total = int(rng.integers(SENTENCES_PER_ESSAY[0], SENTENCES_PER_ESSAY[1] + 1))
        n_fillers = max(total - len(responses), 1)
        filler_idx = rng.choice(len(fillers), size=min(n_fillers, len(fillers)), replace=False)
        sentences: list[tuple[str, int | None]] = [
            (fillers[int(i)], None) for i in filler_idx
        ]
        sentences += responses
        order = rng.permutation(len(sentences))
        ordered = [sentences[int(i)] for i in order]

        essay_parts: list[str] = []
        gold_by_part: dict[int, GoldAnswer] = {}
        cursor = 0
        for sent, part_idx in ordered:
            if cfg.noise_rate > 0 and rng.random() < cfg.noise_rate:
                stripped = sent[:-1] if sent.endswith(".") else sent
                noised = _add_noise(stripped, rng)
                sent = noised + ("." if sent.endswith(".") else "")
            if essay_parts:
                cursor += 1  # joining space
            if part_idx is not None:
                gold_by_part[part_idx] = GoldAnswer(text=sent[:-1], char_start=cursor)
            essay_parts.append(sent)
            cursor += len(sent)
        essay = " ".join(essay_parts)

        for j, (t, values, answerable) in enumerate(parts):
            question = _fill(t.requirement, values)
            gold: tuple[GoldAnswer, ...] = ()
            if answerable:
                gold = (gold_by_part[j],)
            examples.append(QAExample(
                example_id=f"{cfg.id_prefix}-{cfg.bank}-{cfg.seed}-{index + j:06d}",
                question=question,
                context=essay,
                answerable=answerable,
                gold_answers=gold,
            ))
        index += group
    return examples
