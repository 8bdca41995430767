/*
 * Compiled word-list kernels: ``reduced_word_list`` and
 * ``singleton_word_list``, with the same contracts as their ``_pure`` twins.
 * The reduced-word count has only the ``_pure`` implementation, which
 * enumerates nothing.  Neither list takes a cap: ``classes`` settles its
 * word cap with that count before it asks for a list.
 *
 * The search state is the inverse permutation as a position array r, with
 * r[v-1] the 0-indexed position of the value v.  The letter i is a descent
 * exactly when r[i-1] > r[i]; applying it swaps the two slots and drops the
 * inversion count by one.
 *
 * Both kernels are depth-first searches with an explicit stack: the word
 * itself, since the letter placed at a depth tells where to resume the scan
 * there when the search comes back.
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

/* The reduced words of entries in lexicographic order; with adjacent_only,
   only those whose adjacent letters differ by 1. */
static PyObject *
search(PyObject *entries, int adjacent_only)
{
    Py_ssize_t n;
    int *r = read_positions(entries, &n);
    if (r == NULL)
        return NULL;
    Py_ssize_t total = inversions(r, n);
    int *word = PyMem_Malloc((total > 0 ? total : 1) * sizeof(int));
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
            PyObject *t = word_tuple(word, total);
            if (t == NULL || PyList_Append(out, t) < 0) {
                Py_XDECREF(t);
                goto fail;
            }
            Py_DECREF(t);
        }
        else {
            int c = adjacent_only && depth > 0
                ? neighbour_descent(r, (int)n, word[depth - 1], from)
                : first_descent(r, (int)n, from);
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
    return search(entries, 0);
}

PyDoc_STRVAR(singleton_word_list_doc,
"singleton_word_list($module, entries, /)\n--\n\n"
"Reduced words whose adjacent letters always differ by exactly 1,\n"
"in lexicographic order.");

static PyObject *
singleton_word_list(PyObject *module, PyObject *entries)
{
    (void)module;
    return search(entries, 1);
}

static PyMethodDef speedups_methods[] = {
    {"reduced_word_list", reduced_word_list, METH_O, reduced_word_list_doc},
    {"singleton_word_list", singleton_word_list, METH_O,
     singleton_word_list_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef speedups_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "redword._speedups",
    .m_doc = "Compiled word-list kernels, with the contracts of redword._pure.",
    .m_size = 0,
    .m_methods = speedups_methods,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    return PyModuleDef_Init(&speedups_module);
}
