/*
 * Compiled kernels: ``reduced_word_list``, ``singleton_word_list`` and
 * ``commutation_classes``, with the same contracts as their ``_pure``
 * twins.  The pure classes group the full word list by the projection
 * lemma; these are built from lexicographic normal forms and build no word
 * that is not returned.  The reduced-word count has only the ``_pure``
 * implementation, which enumerates nothing.  No kernel takes a cap:
 * ``classes`` settles its word cap with that count before it asks for
 * words.
 *
 * The search state is the inverse permutation as a position array r, with
 * r[v-1] the 0-indexed position of the value v.  The letter i is a descent
 * exactly when r[i-1] > r[i]; applying it swaps the two slots and drops the
 * inversion count by one.
 *
 * The three kernels are one depth-first search, ``search``, under three
 * rules for the letters it may place: any descent, only a neighbour of the
 * letter before, or only what keeps the word a lexicographic normal form.
 * Its stack is the word itself, since the letter placed at a depth tells
 * where to resume the scan there when the search comes back.  The classes
 * expand each normal form the same way in ``class_members``.  Neither
 * recurses.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <limits.h>

/* Reads entries, which must be a permutation of 1..n, into a new position
   array.  Returns NULL with an exception set on failure. */
static int *
read_positions(PyObject *entries, Py_ssize_t *n_out)
{
    PyObject *seq = PySequence_Fast(entries, "entries must be a sequence");
    if (seq == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    int *r = NULL;
    if (n > INT_MAX) {
        PyErr_SetString(PyExc_OverflowError, "permutation degree too large");
        goto fail;
    }
    r = PyMem_Malloc((n > 0 ? n : 1) * sizeof(int));
    if (r == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (Py_ssize_t v = 0; v < n; v++)
        r[v] = -1;
    for (Py_ssize_t pos = 0; pos < n; pos++) {
        int overflow;
        long v = PyLong_AsLongAndOverflow(PySequence_Fast_GET_ITEM(seq, pos),
                                          &overflow);
        if (v == -1 && PyErr_Occurred())
            goto fail;
        if (overflow || v < 1 || v > n || r[v - 1] >= 0) {
            PyErr_Format(PyExc_ValueError,
                         "entries are not a permutation of 1..%zd: %R",
                         n, entries);
            goto fail;
        }
        r[v - 1] = (int)pos;
    }
    Py_DECREF(seq);
    *n_out = n;
    return r;

fail:
    PyMem_Free(r);
    Py_DECREF(seq);
    return NULL;
}

static Py_ssize_t
inversions(const int *r, Py_ssize_t n)
{
    /* r holds each value's position, so value pairs map to entry pairs */
    Py_ssize_t total = 0;
    for (Py_ssize_t a = 0; a < n; a++)
        for (Py_ssize_t b = a + 1; b < n; b++)
            total += r[a] > r[b];
    return total;
}

static void
swap_slots(int *r, int c)
{
    int t = r[c - 1];
    r[c - 1] = r[c];
    r[c] = t;
}

/* The least descent c >= from, or 0. */
static int
first_descent(const int *r, int n, int from)
{
    for (int c = from; c < n; c++)
        if (r[c - 1] > r[c])
            return c;
    return 0;
}

/* The lesser of prev - 1 and prev + 1 that is >= from and a descent, or 0. */
static int
neighbour_descent(const int *r, int n, int prev, int from)
{
    for (int c = prev - 1; c <= prev + 1; c += 2)
        if (c >= from && c >= 1 && c < n && r[c - 1] > r[c])
            return c;
    return 0;
}

static PyObject *
word_tuple(const int *word, Py_ssize_t length)
{
    PyObject *t = PyTuple_New(length);
    if (t == NULL)
        return NULL;
    for (Py_ssize_t k = 0; k < length; k++) {
        PyObject *letter = PyLong_FromLong(word[k]);
        if (letter == NULL) {
            Py_DECREF(t);
            return NULL;
        }
        PyTuple_SET_ITEM(t, k, letter);
    }
    return t;
}

/* Appends to cls the members of the commutation class of rep, its least
   word, in lexicographic order.  A member is an order of the occurrences
   in rep in which no occurrence of a passes one of a - 1, a or a + 1.  The
   next occurrence of a, in slot s = start[a] + placed[a], may be placed
   once placed[a - 1] and placed[a + 1] reach below[s] and above[s], the
   numbers of occurrences of a - 1 and a + 1 before it in rep.  work holds
   3 * (n + 1) + 3 * (length + 1) ints.  Returns -1 with an exception set
   on failure.  Inlined, it crowds the registers of search's loop, which
   slows singleton_word_list of the longest element of degree 16 by 11%. */
Py_NO_INLINE static int
class_members(const int *rep, Py_ssize_t length, int n, int *work,
              unsigned long *steps, PyObject *cls)
{
    int *count = work;
    int *start = count + n + 1;
    int *placed = start + n + 1;
    int *below = placed + n + 1;
    int *above = below + length + 1;
    int *word = above + length + 1;
    for (int a = 0; a <= n; a++)
        count[a] = placed[a] = 0;
    for (Py_ssize_t p = 0; p < length; p++)
        count[rep[p]]++;
    for (int a = 0, slot = 0; a <= n; a++) {
        start[a] = slot;
        slot += count[a];
    }
    for (Py_ssize_t p = 0; p < length; p++) {
        int a = rep[p];
        int s = start[a] + placed[a]++;
        below[s] = placed[a - 1];
        above[s] = placed[a + 1];
    }
    for (int a = 0; a <= n; a++)
        placed[a] = 0;

    Py_ssize_t depth = 0;
    int from = 1;
    for (;;) {
        if (depth == length) {
            PyObject *t = word_tuple(word, length);
            if (t == NULL || PyList_Append(cls, t) < 0) {
                Py_XDECREF(t);
                return -1;
            }
            Py_DECREF(t);
        }
        else {
            int a = from;
            for (; a < n; a++) {
                int s = start[a] + placed[a];
                if (placed[a] < count[a] && placed[a - 1] >= below[s]
                    && placed[a + 1] >= above[s])
                    break;
            }
            if (a < n) {
                placed[a]++;
                word[depth++] = a;
                from = 1;
                continue;
            }
        }
        if ((++*steps & 0xFFFFF) == 0 && PyErr_CheckSignals() < 0)
            return -1;
        if (depth == 0)
            return 0;
        int a = word[--depth];
        placed[a]--;
        from = a + 1;
    }
}

/* The letters search tries after the prefix word[0..depth): ANY takes
   every descent, NEIGHBOUR only the prev - 1 and prev + 1 next to the
   letter prev before it, and NORMAL_FORM only those >= prev - 1.

   NORMAL_FORM gives the least word of each commutation class, its
   lexicographic normal form (Anisimov-Knuth 1979): no letter a follows a
   greater letter b with a commuting with b and with every letter between
   them.  Letters commute when they differ by 2 or more.  If a breaks the
   rule after b, every letter from b to the one before a is >= a + 2 or
   <= a - 2, and the first one <= a - 2 falls 4 or more below the letter
   before it, which breaks the rule sooner.  So where the rule first
   breaks, a falls 2 or more below the letter just before it: a reduced
   word is a least word exactly when no letter falls 2 or more below the
   one before it. */
enum rule { ANY, NEIGHBOUR, NORMAL_FORM };

/* The reduced words of entries that the rule allows, in lexicographic
   order.  Under NORMAL_FORM each leaf is the least word of a new class, the
   result holds each class as the list of its members instead, and the
   work area of class_members follows the word. */
static PyObject *
search(PyObject *entries, enum rule rule)
{
    Py_ssize_t n;
    int *r = read_positions(entries, &n);
    if (r == NULL)
        return NULL;
    Py_ssize_t total = inversions(r, n);
    Py_ssize_t size = rule == NORMAL_FORM
        ? 3 * (n + 1) + 4 * (total + 1) : total + 1;
    int *word = PyMem_Malloc(size * sizeof(int));
    PyObject *out = PyList_New(0);
    if (word == NULL || out == NULL) {
        if (word == NULL)
            PyErr_NoMemory();
        goto fail;
    }

    Py_ssize_t depth = 0;
    int from = 1;
    unsigned long steps = 0;
    for (;;) {
        if (depth == total) {
            PyObject *leaf = rule == NORMAL_FORM
                ? PyList_New(0) : word_tuple(word, total);
            if (leaf == NULL || PyList_Append(out, leaf) < 0) {
                Py_XDECREF(leaf);
                goto fail;
            }
            Py_DECREF(leaf);
            if (rule == NORMAL_FORM
                && class_members(word, total, (int)n, word + total + 1,
                                 &steps, leaf) < 0)
                goto fail;
        }
        else {
            int c;
            if (rule == NEIGHBOUR && depth > 0)
                c = neighbour_descent(r, (int)n, word[depth - 1], from);
            else {
                if (rule == NORMAL_FORM && depth > 0
                    && word[depth - 1] - 1 > from)
                    from = word[depth - 1] - 1;
                c = first_descent(r, (int)n, from);
            }
            if (c) {
                swap_slots(r, c);
                word[depth++] = c;
                from = 1;
                continue;
            }
        }
        if ((++steps & 0xFFFFF) == 0 && PyErr_CheckSignals() < 0)
            goto fail;
        if (depth == 0)
            break;
        int c = word[--depth];
        swap_slots(r, c);
        from = c + 1;
    }
    PyMem_Free(word);
    PyMem_Free(r);
    return out;

fail:
    Py_XDECREF(out);
    PyMem_Free(word);
    PyMem_Free(r);
    return NULL;
}

PyDoc_STRVAR(reduced_word_list_doc,
"reduced_word_list($module, entries, /)\n--\n\n"
"All reduced words of the permutation, in lexicographic order.");

static PyObject *
reduced_word_list(PyObject *module, PyObject *entries)
{
    (void)module;
    return search(entries, ANY);
}

PyDoc_STRVAR(singleton_word_list_doc,
"singleton_word_list($module, entries, /)\n--\n\n"
"Reduced words whose adjacent letters always differ by exactly 1,\n"
"in lexicographic order.");

static PyObject *
singleton_word_list(PyObject *module, PyObject *entries)
{
    (void)module;
    return search(entries, NEIGHBOUR);
}

PyDoc_STRVAR(commutation_classes_doc,
"commutation_classes($module, entries, /)\n--\n\n"
"The commutation classes of the reduced words, each a list of its members\n"
"in lexicographic order, the classes sorted by their least words.");

static PyObject *
commutation_classes(PyObject *module, PyObject *entries)
{
    (void)module;
    return search(entries, NORMAL_FORM);
}

static PyMethodDef speedups_methods[] = {
    {"reduced_word_list", reduced_word_list, METH_O, reduced_word_list_doc},
    {"singleton_word_list", singleton_word_list, METH_O,
     singleton_word_list_doc},
    {"commutation_classes", commutation_classes, METH_O,
     commutation_classes_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef speedups_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "redword._speedups",
    .m_doc = "Compiled kernels, with the contracts of redword._pure.",
    .m_size = 0,
    .m_methods = speedups_methods,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    return PyModuleDef_Init(&speedups_module);
}
