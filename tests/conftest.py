from typing import NamedTuple

import numpy as np

from persona_forge.ingest import GENRE_INDEX, GENRES, RecordSet, _intern


class Row(NamedTuple):
    """One event as plain Python values, with the genre as its name."""
    user_id: str
    timestamp: int
    offset: int
    content_id: str
    rental: bool
    cents: int
    genre: str
    year: int


def make_record(user="u1", ts=0, offset=0, content="c1", kind="R",
                cents=100, genre="Drama", year=2014):
    return Row(user, ts, offset, content, kind == "R", cents, genre, year)


def make_record_set(*records):
    columns = [list(c) for c in zip(*records)] or [[] for _ in Row._fields]
    columns[6] = [GENRE_INDEX[g] for g in columns[6]]
    user_ids, ts, offset, content_ids, *rest = columns
    return RecordSet.build(*_intern(user_ids), ts, offset,
                           *_intern(content_ids), *rest)


def random_user_months(rng):
    """Rows (users, user, month) sorted by (user, month) of up to 7 users,
    each with 1-4 of the months 0-5: months with gaps, single-row users,
    and sometimes no rows at all."""
    months = [np.sort(rng.choice(6, int(rng.integers(1, 5)), replace=False))
              for _ in range(int(rng.integers(0, 8)))]
    users = tuple(f"u{j}" for j in range(len(months)))
    user = np.repeat(np.arange(len(months)), [len(m) for m in months])
    return users, user, np.concatenate([np.zeros(0, np.int64), *months])


def user_months(cm):
    """A matrix's rows as (user_id, month) pairs, in row order."""
    return [(cm.users[u], m)
            for u, m in zip(cm.user.tolist(), cm.month.tolist())]


def rows(rs):
    """The table's rows, in table order, as `Row`s."""
    return [Row(rs.users[u], ts, offset, rs.contents[c], rental, cents,
                GENRES[g], year)
            for u, ts, offset, c, rental, cents, g, year in zip(
                rs.user.tolist(), rs.timestamp.tolist(), rs.offset.tolist(),
                rs.content.tolist(), rs.rental.tolist(), rs.cents.tolist(),
                rs.genre.tolist(), rs.year.tolist())]
