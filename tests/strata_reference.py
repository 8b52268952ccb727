"""Reference oracle for the strata of a grade field: a plain flood fill.

Labels are 6-connected components of nodes of equal known grade, numbered
in the order of their first node in C order, with -1 at unknown (negative)
nodes, exactly as matdist labelled them before the labelling was
vectorised.  Tests compare ``foliation._label_strata`` against it; nothing
in the package uses it.
"""

import numpy as np

OFFSETS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


def label_strata(grade):
    shape = grade.shape
    labels = np.full(shape, -1, dtype=int)
    next_label = 0
    for start in np.argwhere(grade >= 0):
        start = tuple(start)
        if labels[start] != -1:
            continue
        value = grade[start]
        stack = [start]
        labels[start] = next_label
        while stack:
            node = stack.pop()
            for off in OFFSETS:
                nb = (node[0] + off[0], node[1] + off[1], node[2] + off[2])
                if any(c < 0 or c >= shape[i] for i, c in enumerate(nb)):
                    continue
                if labels[nb] == -1 and grade[nb] == value:
                    labels[nb] = next_label
                    stack.append(nb)
        next_label += 1
    return labels
