/*
 * Compiled enumeration kernels, mirroring ``_pure`` function for function.
 *
 * The search state is the inverse permutation as a position array r, with
 * r[v-1] the 0-indexed position of the value v.  The letter i is a descent
 * exactly when r[i-1] > r[i]; applying it swaps the two slots and drops the
 * inversion count by one.
 *
 * The two word kernels are depth-first searches with an explicit stack: the
 * word itself, since the letter placed at a depth tells where to resume the
 * scan there when the search comes back.  The counter walks the lower
 * weak-order interval one length at a time and keeps only two levels, each
 * an open-addressing hash table from the position array, packed 4 bits per
 * value, to its number of paths from the start, held in 128 bits.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <limits.h>
#include <stdint.h>
#include <string.h>

#ifndef __SIZEOF_INT128__
#error "the level counter needs unsigned __int128"
#endif

typedef unsigned __int128 u128;

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

static void
raise_cap_exceeded(PyObject *cap, Py_ssize_t partial)
{
    PyObject *errors = PyImport_ImportModule("redword.errors");
    if (errors == NULL)
        return;
    PyObject *type = PyObject_GetAttrString(errors, "EnumerationCapExceeded");
    Py_DECREF(errors);
    if (type == NULL)
        return;
    PyObject *exc = PyObject_CallFunction(type, "On", cap, partial);
    if (exc != NULL) {
        PyErr_SetObject(type, exc);
        Py_DECREF(exc);
    }
    Py_DECREF(type);
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
   only those whose adjacent letters differ by 1.  cap is NULL for no cap. */
static PyObject *
search(PyObject *entries, PyObject *cap, int adjacent_only)
{
    Py_ssize_t max_words = PY_SSIZE_T_MAX;
    if (cap != NULL) {
        /* a cap past the largest list length caps nothing */
        max_words = PyNumber_AsSsize_t(cap, NULL);
        if (max_words == -1 && PyErr_Occurred())
            return NULL;
    }
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
            if (PyList_GET_SIZE(out) >= max_words) {
                raise_cap_exceeded(cap, PyList_GET_SIZE(out));
                goto fail;
            }
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

/* One length level of the interval: an open-addressing hash table, linear
   probing, from packed position arrays to path counts. */
typedef struct {
    uint64_t *keys;
    u128 *counts;
    size_t mask;  /* capacity - 1; the capacity is a power of two */
    size_t used;
} level_t;

/* No packed position array is all ones: for n >= 2 its nibbles differ. */
#define EMPTY UINT64_MAX

static int
level_init(level_t *t, size_t capacity)
{
    t->keys = PyMem_Malloc(capacity * sizeof(uint64_t));
    t->counts = PyMem_Malloc(capacity * sizeof(u128));
    if (t->keys == NULL || t->counts == NULL) {
        PyMem_Free(t->keys);
        PyMem_Free(t->counts);
        t->keys = NULL;
        t->counts = NULL;
        PyErr_NoMemory();
        return -1;
    }
    memset(t->keys, 0xFF, capacity * sizeof(uint64_t));
    t->mask = capacity - 1;
    t->used = 0;
    return 0;
}

static void
level_free(level_t *t)
{
    PyMem_Free(t->keys);
    PyMem_Free(t->counts);
}

static size_t
level_slot(const level_t *t, uint64_t key)
{
    uint64_t h = key * 0x9E3779B97F4A7C15ULL;
    size_t i = (size_t)(h ^ (h >> 32)) & t->mask;
    while (t->keys[i] != EMPTY && t->keys[i] != key)
        i = (i + 1) & t->mask;
    return i;
}

static int
level_grow(level_t *t)
{
    level_t bigger;
    if (level_init(&bigger, 2 * (t->mask + 1)) < 0)
        return -1;
    for (size_t i = 0; i <= t->mask; i++) {
        if (t->keys[i] != EMPTY) {
            size_t j = level_slot(&bigger, t->keys[i]);
            bigger.keys[j] = t->keys[i];
            bigger.counts[j] = t->counts[i];
        }
    }
    bigger.used = t->used;
    level_free(t);
    *t = bigger;
    return 0;
}

/* Adds ways to the count of key.  Returns 0, 1 on overflow, or -1 with
   MemoryError set. */
static int
level_add(level_t *t, uint64_t key, u128 ways)
{
    size_t i = level_slot(t, key);
    if (t->keys[i] == key)
        return __builtin_add_overflow(t->counts[i], ways, &t->counts[i]);
    if (2 * (t->used + 1) > t->mask + 1) {
        if (level_grow(t) < 0)
            return -1;
        i = level_slot(t, key);
    }
    t->keys[i] = key;
    t->counts[i] = ways;
    t->used++;
    return 0;
}

static PyObject *
u128_to_long(u128 x)
{
    char digits[40];  /* 2**128 has 39 decimal digits */
    char *p = digits + sizeof digits;
    *--p = '\0';
    do {
        *--p = (char)('0' + (int)(x % 10));
        x /= 10;
    } while (x);
    return PyLong_FromString(p, NULL, 10);
}

static PyObject *
pure_count(PyObject *entries)
{
    PyObject *pure = PyImport_ImportModule("redword._pure");
    if (pure == NULL)
        return NULL;
    PyObject *count = PyObject_CallMethod(pure, "reduced_word_count", "(O)",
                                          entries);
    Py_DECREF(pure);
    return count;
}

PyDoc_STRVAR(reduced_word_count_doc,
"reduced_word_count($module, entries, /)\n--\n\n"
"Number of reduced words, without materialising them.");

static PyObject *
reduced_word_count(PyObject *module, PyObject *entries)
{
    (void)module;
    Py_ssize_t n;
    int *r = read_positions(entries, &n);
    if (r == NULL)
        return NULL;
    if (n > 16) {
        /* the packed keys hold positions below 16 */
        PyMem_Free(r);
        return pure_count(entries);
    }
    uint64_t start = 0;
    for (Py_ssize_t v = 0; v < n; v++)
        start |= (uint64_t)r[v] << (4 * v);
    PyMem_Free(r);

    level_t here = {0}, below = {0};
    PyObject *result = NULL;
    if (level_init(&here, 64) < 0 || level_init(&below, 64) < 0)
        goto done;
    level_add(&here, start, 1);
    for (;;) {
        for (size_t s = 0; s <= here.mask; s++) {
            uint64_t key = here.keys[s];
            if (key == EMPTY)
                continue;
            for (int c = 1; c < n; c++) {
                uint64_t a = (key >> (4 * (c - 1))) & 15;
                uint64_t b = (key >> (4 * c)) & 15;
                if (a <= b)
                    continue;
                uint64_t flip = a ^ b;
                int added = level_add(
                    &below, key ^ (flip << (4 * (c - 1))) ^ (flip << (4 * c)),
                    here.counts[s]);
                if (added < 0)
                    goto done;
                if (added > 0) {
                    /* 35! > 2**128: only lengths of 35 and more get here */
                    level_free(&here);
                    level_free(&below);
                    return pure_count(entries);
                }
            }
        }
        if (below.used == 0)
            break;
        level_t t = here;
        here = below;
        below = t;
        memset(below.keys, 0xFF, (below.mask + 1) * sizeof(uint64_t));
        below.used = 0;
        if (PyErr_CheckSignals() < 0)
            goto done;
    }
    /* the last level holds the identity alone */
    for (size_t s = 0; s <= here.mask; s++)
        if (here.keys[s] != EMPTY)
            result = u128_to_long(here.counts[s]);

done:
    level_free(&here);
    level_free(&below);
    return result;
}

PyDoc_STRVAR(reduced_word_list_doc,
"reduced_word_list($module, entries, cap, /)\n--\n\n"
"All reduced words of the permutation, in lexicographic order.\n\n"
"Raises EnumerationCapExceeded once more than ``cap`` words exist.");

static PyObject *
reduced_word_list(PyObject *module, PyObject *args)
{
    (void)module;
    PyObject *entries, *cap;
    if (!PyArg_ParseTuple(args, "OO:reduced_word_list", &entries, &cap))
        return NULL;
    return search(entries, cap, 0);
}

PyDoc_STRVAR(singleton_word_list_doc,
"singleton_word_list($module, entries, /)\n--\n\n"
"Reduced words whose adjacent letters always differ by exactly 1,\n"
"in lexicographic order.");

static PyObject *
singleton_word_list(PyObject *module, PyObject *entries)
{
    (void)module;
    return search(entries, NULL, 1);
}

static PyMethodDef speedups_methods[] = {
    {"reduced_word_list", reduced_word_list, METH_VARARGS,
     reduced_word_list_doc},
    {"reduced_word_count", reduced_word_count, METH_O,
     reduced_word_count_doc},
    {"singleton_word_list", singleton_word_list, METH_O,
     singleton_word_list_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef speedups_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "redword._speedups",
    .m_doc = "Compiled enumeration kernels, mirroring redword._pure.",
    .m_size = 0,
    .m_methods = speedups_methods,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    return PyModuleDef_Init(&speedups_module);
}
