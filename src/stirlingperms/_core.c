/* Compiled kernels.
 *
 * Mirrors ``stirlingperms._pure`` function for function; see that module
 * for the semantics.  Words are packed ``bytes`` (letter k = byte value k,
 * sentinel 0), multiplicity vectors are sequences of positive ints.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

enum { FIXED, FREE_DESCENT_PLATEAU, SINGLE_DOUBLE_DESCENT, DOUBLE_ASCENT };

#define MAX_LETTERS 255

/* setup.py defines this as the sha256 of this file, so a test can tell
 * an extension built from another revision of it. */
#ifndef SOURCE_SHA256
#define SOURCE_SHA256 ""
#endif

/* Validate ``parts`` into ``buf`` and its sum into ``*total``; returns
 * the number of letters, or -1 with an exception set. */
static Py_ssize_t
fill_parts(PyObject *parts, Py_ssize_t *buf, Py_ssize_t *total)
{
    PyObject *seq = PySequence_Fast(parts, "parts must be a sequence");
    Py_ssize_t n, k;
    if (seq == NULL)
        return -1;
    n = PySequence_Fast_GET_SIZE(seq);
    if (n > MAX_LETTERS) {
        PyErr_SetString(PyExc_ValueError, "at most 255 distinct letters are supported");
        n = -1;
    }
    for (k = 0, *total = 0; k < n; k++) {
        buf[k] = PyLong_AsSsize_t(PySequence_Fast_GET_ITEM(seq, k));
        if (buf[k] == -1 && PyErr_Occurred())
            n = -1;
        else if (buf[k] < 1)
            n = -1, PyErr_SetString(PyExc_ValueError, "multiplicities must be positive");
        else if (buf[k] > PY_SSIZE_T_MAX - *total)
            n = -1, PyErr_SetString(PyExc_OverflowError, "total multiplicity is too large");
        else
            *total += buf[k];
    }
    Py_DECREF(seq);
    return n;
}

/* The shared check of the two-argument functions. */
static int
two_args(const char *name, Py_ssize_t nargs)
{
    if (nargs == 2)
        return 1;
    PyErr_Format(PyExc_TypeError, "%s() takes exactly 2 arguments (%zd given)", name, nargs);
    return 0;
}

/* The sorted word set of ``parts`` as one flat buffer of ``*count``
 * rows of ``*len`` bytes each (release it with PyMem_Free), with the
 * number of letters in ``*n``; or NULL with an exception set. */
static unsigned char *
sorted_words(PyObject *arg, Py_ssize_t *n, Py_ssize_t *count, Py_ssize_t *len)
{
    Py_ssize_t parts[MAX_LETTERS], offset[MAX_LETTERS + 1];
    Py_ssize_t total, rows = 1, m = 0, k, i, g, pos, v, sum;
    unsigned char *cur, *nxt, *dst;

    if ((*n = fill_parts(arg, parts, &total)) < 0)
        return NULL;
    /* Two buffers of the last level's size serve every level and every
     * sort pass, as source and destination in turn: the last level has
     * prod_k (1 + parts[0] + ... + parts[k-1]) rows of ``total`` bytes,
     * and every earlier level is smaller. */
    for (k = 0; k < *n && rows <= PY_SSIZE_T_MAX / (m + 1); m += parts[k], k++)
        rows *= m + 1;
    if (k < *n || (total > 0 && rows > PY_SSIZE_T_MAX / 2 / total)) {
        PyErr_SetString(PyExc_OverflowError, "the word set is too large to enumerate");
        return NULL;
    }
    cur = PyMem_Malloc((size_t)(rows * total) + 1);
    nxt = PyMem_Malloc((size_t)(rows * total) + 1);
    if (cur == NULL || nxt == NULL) {
        PyMem_Free(cur);
        PyMem_Free(nxt);
        PyErr_NoMemory();
        return NULL;
    }
    /* Level k inserts the block (k+1)^parts[k] into every gap of every
     * level-(k-1) word; level 0 is the empty word. */
    for (k = 0, rows = 1, m = 0; k < *n; k++) {
        Py_ssize_t nm = m + parts[k];
        for (i = 0, dst = nxt; i < rows; i++) {
            const unsigned char *src = cur + i * m;
            for (g = 0; g <= m; g++, dst += nm) {
                memcpy(dst, src, g);
                memset(dst + g, (int)(k + 1), parts[k]);
                memcpy(dst + g + parts[k], src + g, m - g);
            }
        }
        dst = cur, cur = nxt, nxt = dst;
        rows *= m + 1;
        m = nm;
    }
    /* Stable LSD counting sort: one pass per position, from the last,
     * over the byte values 0..n; no comparisons. */
    for (pos = m - 1; pos >= 0; pos--) {
        memset(offset, 0, (size_t)(*n + 1) * sizeof *offset);
        for (i = 0; i < rows; i++)
            offset[cur[i * m + pos]]++;
        for (v = 0, sum = 0; v <= *n; v++) {
            Py_ssize_t c = offset[v];
            offset[v] = sum;
            sum += c;
        }
        for (i = 0; i < rows; i++)
            memcpy(nxt + offset[cur[i * m + pos]]++ * m, cur + i * m, (size_t)m);
        dst = cur, cur = nxt, nxt = dst;
    }
    PyMem_Free(nxt);
    *count = rows;
    *len = m;
    return cur;
}

/* The ``count`` rows of ``len`` bytes at ``buf`` as a list of bytes. */
static PyObject *
rows_list(const unsigned char *buf, Py_ssize_t count, Py_ssize_t len)
{
    PyObject *out = PyList_New(count), *w;
    Py_ssize_t i;
    for (i = 0; out != NULL && i < count; i++) {
        if ((w = PyBytes_FromStringAndSize((const char *)buf + i * len, len)) == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, w);
    }
    return out;
}

static PyObject *
words_of(PyObject *Py_UNUSED(self), PyObject *arg)
{
    Py_ssize_t n, count, len;
    unsigned char *buf = sorted_words(arg, &n, &count, &len);
    PyObject *out;
    if (buf == NULL)
        return NULL;
    out = rows_list(buf, count, len);
    PyMem_Free(buf);
    return out;
}

static PyObject *
enum_counts(PyObject *Py_UNUSED(self), PyObject *arg)
{
    Py_ssize_t n, count, len, i, distinct = 0;
    unsigned char *buf = sorted_words(arg, &n, &count, &len);
    if (buf == NULL)
        return NULL;
    /* sorted rows of equal length, so duplicates are adjacent */
    for (i = 0; i < count; i++)
        distinct += i == 0 || memcmp(buf + (i - 1) * len, buf + i * len, (size_t)len) != 0;
    PyMem_Free(buf);
    return Py_BuildValue("(nn)", count, distinct);
}

/* Stack of letters with more occurrences still to come; the stack is
 * strictly increasing, so any letter smaller than the top sits between two
 * occurrences of the top letter.  ``w`` must have content ``mult``, so a
 * letter's count is only read after its first occurrence has set it. */
static int
stirling_property(const unsigned char *w, Py_ssize_t m, const Py_ssize_t *mult)
{
    Py_ssize_t seen[MAX_LETTERS + 1];
    unsigned char stack[MAX_LETTERS + 1];
    int top = -1;
    Py_ssize_t i;
    for (i = 0; i < m; i++) {
        unsigned char c = w[i];
        if (top >= 0 && stack[top] == c) {
            if (++seen[c] == mult[c])
                top--;
        }
        else {
            if (top >= 0 && stack[top] > c)
                return 0;
            seen[c] = 1;
            if (mult[c] > 1)
                stack[++top] = c;
        }
    }
    return 1;
}

static PyObject *
is_stirling(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t parts[MAX_LETTERS], mult[MAX_LETTERS + 1] = {0};
    Py_ssize_t n, m, k, total;
    const unsigned char *w;
    PyObject *wb;
    int ok = 0;

    if (!two_args("is_stirling", nargs) || (n = fill_parts(args[1], parts, &total)) < 0
        || (wb = PyBytes_FromObject(args[0])) == NULL)
        return NULL;
    w = (const unsigned char *)PyBytes_AS_STRING(wb);
    m = PyBytes_GET_SIZE(wb);
    if (m != total)
        goto done;
    for (k = 0; k < m; k++) {
        if (w[k] < 1 || w[k] > n)
            goto done;
        mult[w[k]]++;
    }
    for (k = 1; k <= n; k++)
        if (mult[k] != parts[k - 1])
            goto done;
    ok = stirling_property(w, m, mult);
done:
    Py_DECREF(wb);
    return PyBool_FromLong(ok);
}

static int
next_permutation(unsigned char *a, Py_ssize_t m)
{
    Py_ssize_t i = m - 2, j, lo, hi;
    unsigned char t;
    while (i >= 0 && a[i] >= a[i + 1])
        i--;
    if (i < 0)
        return 0;
    j = m - 1;
    while (a[j] <= a[i])
        j--;
    t = a[i], a[i] = a[j], a[j] = t;
    for (lo = i + 1, hi = m - 1; lo < hi; lo++, hi--)
        t = a[lo], a[lo] = a[hi], a[hi] = t;
    return 1;
}

static PyObject *
brute_count(PyObject *Py_UNUSED(self), PyObject *arg)
{
    Py_ssize_t parts[MAX_LETTERS], mult[MAX_LETTERS + 1] = {0};
    Py_ssize_t m, n = fill_parts(arg, parts, &m), k, i;
    unsigned long long count = 0;
    unsigned char *arr;

    if (n < 0)
        return NULL;
    if (m == 0)
        return PyLong_FromLong(1);
    if ((arr = PyMem_Malloc((size_t)m)) == NULL)
        return PyErr_NoMemory();
    for (k = 0, i = 0; k < n; i += parts[k], k++) {
        mult[k + 1] = parts[k];
        memset(arr + i, (int)(k + 1), parts[k]);
    }
    Py_BEGIN_ALLOW_THREADS
    do
        count += stirling_property(arr, m, mult);
    while (next_permutation(arr, m));
    Py_END_ALLOW_THREADS
    PyMem_Free(arr);
    return PyLong_FromUnsignedLongLong(count);
}

/* The twelve statistics of the ``m``-byte word ``w`` into ``out``, in
 * the order of profile12.  ``mult[c]`` is the number of occurrences of
 * letter ``c`` in ``w``; ``seen`` is all zero on entry and on return. */
static void
stats12(const unsigned char *w, Py_ssize_t m, const Py_ssize_t *mult, unsigned char *seen,
        Py_ssize_t *out)
{
    Py_ssize_t asc = 0, plat = 0, des = 0, sdes = 0, mdes = 0, fplat = 0, uplat = 0;
    Py_ssize_t dasc = 0, sddes = 0, fdesp = 0, ascpp = 0, mdup = 0, i;

    if (m == 0) /* the empty word is the grammar base case: one ascent */
        asc = 1;
    else if (w[0] == 0) /* index 0 compares the sentinel with w[0] */
        plat++;
    else
        asc++;
    for (i = 1; i <= m; i++) {
        unsigned char p = i >= 2 ? w[i - 2] : 0, c = w[i - 1], nx = i < m ? w[i] : 0;
        int multiple = mult[c] > 1, leftmost = !seen[c];
        seen[c] = 1;
        if (c > nx) {
            des++;
            if (multiple)
                mdes++, mdup++;
            else
                sdes++;
        }
        else if (c == nx) {
            plat++;
            if (leftmost)
                fplat++;
            if (!(p > c && leftmost) && !(p < c))
                uplat++, mdup++;
        }
        else
            asc++;
        if (p < c && c < nx)
            dasc++;
        if (p > c && c > nx && !multiple)
            sddes++;
        if (p > c && c == nx && leftmost)
            fdesp++;
        if (p < c && c >= nx)
            ascpp++;
    }
    for (i = 0; i < m; i++)
        seen[w[i]] = 0;
    out[0] = asc, out[1] = plat, out[2] = des, out[3] = sdes, out[4] = mdes;
    out[5] = fplat, out[6] = uplat, out[7] = dasc, out[8] = sddes, out[9] = fdesp;
    out[10] = ascpp, out[11] = mdup;
}

/* The twelve values at ``v`` as a tuple of ints. */
static PyObject *
stats_tuple(const Py_ssize_t *v)
{
    return Py_BuildValue("(nnnnnnnnnnnn)", v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7],
                         v[8], v[9], v[10], v[11]);
}

static PyObject *
profile12(PyObject *Py_UNUSED(self), PyObject *arg)
{
    Py_ssize_t mult[256] = {0}, out[12], m, i;
    unsigned char seen[256] = {0};
    const unsigned char *w;
    PyObject *wb = PyBytes_FromObject(arg);

    if (wb == NULL)
        return NULL;
    w = (const unsigned char *)PyBytes_AS_STRING(wb);
    m = PyBytes_GET_SIZE(wb);
    for (i = 0; i < m; i++)
        mult[w[i]]++;
    stats12(w, m, mult, seen, out);
    Py_DECREF(wb);
    return stats_tuple(out);
}

/* The value class of letter ``x`` (0..255) in the ``m``-byte word ``w``,
 * from the window around its leftmost occurrence, which goes into
 * ``*pos`` (0-based); or -1 when ``x`` does not occur. */
static int
class_at(const unsigned char *w, Py_ssize_t m, long x, Py_ssize_t *pos)
{
    const unsigned char *at = memchr(w, (int)x, (size_t)m), *end = w + m;
    unsigned char p, nx;
    if (at == NULL)
        return -1;
    *pos = at - w;
    p = at > w ? at[-1] : 0;
    nx = at + 1 < end ? at[1] : 0;
    if (p > x && x == nx)
        return FREE_DESCENT_PLATEAU;
    /* single: no occurrence after the leftmost */
    if (p > x && x > nx && memchr(at + 1, (int)x, (size_t)(end - at - 1)) == NULL)
        return SINGLE_DOUBLE_DESCENT;
    if (p < x && x < nx)
        return DOUBLE_ASCENT;
    return FIXED;
}

/* Write the hop of letter ``x`` of class ``cls`` (not FIXED), whose
 * leftmost occurrence in ``w`` is ``pos``, into the ``m`` bytes at
 * ``dst``. */
static void
hop(const unsigned char *w, Py_ssize_t m, Py_ssize_t pos, long x, int cls, unsigned char *dst)
{
    Py_ssize_t k, l1 = pos + 1; /* 1-based leftmost occurrence */
    if (cls == FREE_DESCENT_PLATEAU || cls == SINGLE_DOUBLE_DESCENT) {
        /* hop left: land after the nearest smaller letter (the left
         * neighbour is larger, so k starts at 0 or beyond) */
        for (k = l1 - 2; k > 0 && w[k - 1] >= x; k--)
            ;
        memcpy(dst, w, k);
        dst[k] = (unsigned char)x;
        memcpy(dst + k + 1, w + k, l1 - 1 - k);
        memcpy(dst + l1, w + l1, m - l1);
    }
    else {
        /* hop right: land before the nearest letter <= x */
        for (k = l1 + 2; k <= m && w[k - 1] > x; k++)
            ;
        memcpy(dst, w, l1 - 1);
        memcpy(dst + l1 - 1, w + l1, k - 1 - l1);
        dst[k - 2] = (unsigned char)x;
        memcpy(dst + k - 1, w + k - 1, m - k + 1);
    }
}

/* Shared by classify_letter and phi_letter: parse ``(word, x)`` into the
 * word as bytes in ``*wb``, the letter in ``*x`` and its leftmost
 * occurrence (0-based) in ``*pos``, and return its value class; or -1
 * with an exception set (ValueError when the letter does not occur). */
static int
classify(const char *name, PyObject *const *args, Py_ssize_t nargs,
         PyObject **wb, long *x, Py_ssize_t *pos)
{
    int overflow, cls = -1;

    if (!two_args(name, nargs))
        return -1;
    /* an int that overflows a long reads as -1, outside the letters */
    *x = PyLong_AsLongAndOverflow(args[1], &overflow);
    if ((*x == -1 && PyErr_Occurred()) || (*wb = PyBytes_FromObject(args[0])) == NULL)
        return -1;
    if (*x >= 0 && *x <= 255)
        cls = class_at((const unsigned char *)PyBytes_AS_STRING(*wb), PyBytes_GET_SIZE(*wb), *x,
                       pos);
    if (cls < 0) {
        Py_CLEAR(*wb);
        PyErr_Format(PyExc_ValueError, "letter %R does not occur in the word", args[1]);
    }
    return cls;
}

static PyObject *
classify_letter(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *wb;
    long x;
    Py_ssize_t pos;
    int cls = classify("classify_letter", args, nargs, &wb, &x, &pos);
    if (cls < 0)
        return NULL;
    Py_DECREF(wb);
    return PyLong_FromLong(cls);
}

static PyObject *
phi_letter(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *wb, *nw;
    long x;
    Py_ssize_t pos;
    int cls = classify("phi_letter", args, nargs, &wb, &x, &pos);

    if (cls < 0)
        return NULL;
    if (cls == FIXED)
        return wb;
    nw = PyBytes_FromStringAndSize(NULL, PyBytes_GET_SIZE(wb));
    if (nw != NULL)
        hop((const unsigned char *)PyBytes_AS_STRING(wb), PyBytes_GET_SIZE(wb), pos, x, cls,
            (unsigned char *)PyBytes_AS_STRING(nw));
    Py_DECREF(wb);
    return nw;
}

/* The checks of gfs_scan on the orbit of the representative ``r`` with
 * profile ``pr`` (see the pure backend): its ``k`` moving letters are
 * ``moving``, ``bit[x]`` is the bit of letter ``x`` in a member index (0
 * for a fixed letter), and ``member`` has room for ``2^k`` rows of ``m``
 * bytes, its first row ``r``.  Returns the name of the failed check, or
 * NULL; a failed check of one member names it in ``*at`` (left at ``r``
 * for a check of the whole orbit), and the letter of a failed hop in
 * ``*letter``. */
static const char *
orbit_failure(unsigned char *member, Py_ssize_t k, const long *moving, const Py_ssize_t *bit,
              Py_ssize_t n, Py_ssize_t m, const Py_ssize_t *mult, unsigned char *seen,
              const Py_ssize_t *pr, unsigned char *img, const unsigned char **at, long *letter)
{
    Py_ssize_t size = (Py_ssize_t)1 << k, terms[64] = {0}, binom[64] = {1}, p[12];
    Py_ssize_t s, i, j, top, reps = 0, pos;
    const unsigned char *from, *image;
    const char *failure = NULL;
    unsigned char *v;
    long x;
    int cls;

    for (s = 0, v = member; s < size; s++, v += m) {
        if (s == 0)
            memcpy(p, pr, sizeof p);
        else {
            for (top = 0; s >> (top + 1); top++)
                ;
            from = member + (s ^ ((Py_ssize_t)1 << top)) * m;
            cls = class_at(from, m, moving[top], &pos);
            if (cls == FIXED)
                memcpy(v, from, (size_t)m);
            else
                hop(from, m, pos, moving[top], cls, v);
            if (!stirling_property(v, m, mult)) {
                *at = from, *letter = moving[top];
                return "closure";
            }
            stats12(v, m, mult, seen, p);
        }
        if (p[11] != pr[11]) {
            *at = v;
            return "mdup-invariance";
        }
        i = p[0] - pr[10];
        if (p[0] + p[5] + p[3] != 2 * pr[10] + k || i < 0 || i > k)
            return "orbit-sum";
        terms[i]++;
        reps += !(p[8] || p[9]);
    }
    /* row k of Pascal's triangle */
    for (i = 1; i <= k; i++)
        for (j = i; j > 0; j--)
            binom[j] += binom[j - 1];
    for (i = 0; i <= k; i++)
        if (terms[i] != binom[i])
            return "orbit-sum";
    if (reps != 1)
        return "unique-representative";
    for (s = 0, v = member; s < size; s++, v += m)
        for (x = 1; x <= n; x++) {
            cls = class_at(v, m, x, &pos);
            image = v;
            if (cls != FIXED) {
                hop(v, m, pos, x, cls, img);
                image = img;
            }
            if (memcmp(image, member + (s ^ bit[x]) * m, (size_t)m) != 0)
                failure = stirling_property(image, m, mult) ? "hop" : "closure";
            else if ((cls == FREE_DESCENT_PLATEAU || cls == SINGLE_DOUBLE_DESCENT)
                     != (class_at(image, m, x, &pos) == DOUBLE_ASCENT))
                failure = "toggle";
            if (failure != NULL) {
                *at = v, *letter = x;
                return failure;
            }
        }
    return NULL;
}

static PyObject *
gfs_scan(PyObject *Py_UNUSED(self), PyObject *arg)
{
    Py_ssize_t n, count, m, i, j, k, left, size, cap = 0, pos, pr[12];
    Py_ssize_t mult[MAX_LETTERS + 1] = {0}, bit[MAX_LETTERS + 1] = {0};
    long x, letter = 0, moving[MAX_LETTERS];
    unsigned char seen[MAX_LETTERS + 1] = {0}, *buf = sorted_words(arg, &n, &count, &m);
    unsigned char *member = NULL, *img = NULL, *grown;
    const unsigned char *r, *at = NULL;
    const char *failure = NULL;
    PyObject *out = NULL;

    if (buf == NULL)
        return NULL;
    /* every word has the content of the composition */
    for (i = 0; i < m; i++)
        mult[buf[i]]++;
    if ((img = PyMem_Malloc((size_t)m + 1)) == NULL)
        goto done;
    for (i = 0, r = buf, left = count; i < count && failure == NULL; i++, r += m) {
        stats12(r, m, mult, seen, pr);
        if (pr[8] || pr[9]) /* not a representative */
            continue;
        at = r;
        for (x = 1, k = 0; x <= n; x++)
            if (class_at(r, m, x, &pos) != FIXED)
                moving[k++] = x;
        if (pr[0] - pr[7] != pr[5] + pr[3] || pr[5] + pr[3] != pr[10])
            failure = "identity-ascpp";
        else if (pr[7] != m + 1 - pr[11] - 2 * pr[10])
            failure = "identity-dasc";
        else if (k != pr[7])
            failure = "orbit-size";
        else if (k >= (Py_ssize_t)(8 * sizeof left - 1) || (left >> k) == 0) /* 2^k > left */
            failure = "cover";
        if (failure != NULL)
            break;
        size = (Py_ssize_t)1 << k;
        if (size * m >= cap) {
            if ((grown = PyMem_Realloc(member, (size_t)(size * m + 1))) == NULL)
                goto done;
            member = grown, cap = size * m + 1;
        }
        memcpy(member, r, (size_t)m);
        for (x = 1; x <= n; x++)
            bit[x] = 0;
        for (j = 0; j < k; j++)
            bit[moving[j]] = (Py_ssize_t)1 << j;
        failure = orbit_failure(member, k, moving, bit, n, m, mult, seen, pr, img, &at, &letter);
        left -= size;
    }
    if (failure == NULL && left != 0)
        failure = "cover", at = NULL;
    /* ``at`` points into ``buf`` or ``member``; y# makes None of NULL */
    if (failure != NULL)
        out = Py_BuildValue("(sy#l)", failure, (const char *)at, m, letter);
    else
        out = Py_NewRef(Py_None);
done:
    if (out == NULL && !PyErr_Occurred())
        PyErr_NoMemory();
    PyMem_Free(buf);
    PyMem_Free(member);
    PyMem_Free(img);
    return out;
}

/* One distinct profile of joint_hist and the number of words with it. */
typedef struct {
    Py_ssize_t stats[12], count;
} hist_entry;

/* FNV-1a over the twelve values, high half folded into the low half. */
static size_t
stats_hash(const Py_ssize_t *v)
{
    unsigned long long h = 14695981039346656037ULL;
    int k;
    for (k = 0; k < 12; k++)
        h = (h ^ (unsigned long long)v[k]) * 1099511628211ULL;
    return (size_t)(h ^ (h >> 32));
}

static PyObject *
joint_hist(PyObject *Py_UNUSED(self), PyObject *arg)
{
    Py_ssize_t n, count, m, i, k, mult[MAX_LETTERS + 1] = {0}, prof[12];
    Py_ssize_t used = 0, cap = 16, *slot = NULL, *grown; /* slot: entry index + 1, or 0 */
    size_t mask, h;
    unsigned char seen[MAX_LETTERS + 1] = {0}, *buf = sorted_words(arg, &n, &count, &m);
    hist_entry *entry = NULL, *e;
    PyObject *out = NULL, *item;

    if (buf == NULL)
        return NULL;
    /* every word has the content of the composition */
    for (i = 0; i < m; i++)
        mult[buf[i]]++;
    /* entries in order of first occurrence, indexed by an open-addressing
     * table of ``cap`` slots that is kept at most half full */
    if ((entry = PyMem_Malloc((size_t)cap / 2 * sizeof *entry)) == NULL
        || (slot = PyMem_Calloc((size_t)cap, sizeof *slot)) == NULL)
        goto done;
    for (i = 0, mask = (size_t)cap - 1; i < count; i++) {
        stats12(buf + i * m, m, mult, seen, prof);
        for (h = stats_hash(prof) & mask; slot[h]; h = (h + 1) & mask)
            if (memcmp(entry[slot[h] - 1].stats, prof, sizeof prof) == 0)
                break;
        if (slot[h]) {
            entry[slot[h] - 1].count++;
            continue;
        }
        e = &entry[used];
        memcpy(e->stats, prof, sizeof prof);
        e->count = 1;
        slot[h] = ++used;
        if (2 * used == cap) { /* double the table and rehash */
            if ((grown = PyMem_Calloc((size_t)cap * 2, sizeof *slot)) == NULL
                || (e = PyMem_Realloc(entry, (size_t)cap * sizeof *entry)) == NULL) {
                PyMem_Free(grown);
                goto done;
            }
            PyMem_Free(slot);
            slot = grown, entry = e, cap *= 2, mask = (size_t)cap - 1;
            for (k = 0; k < used; k++) {
                for (h = stats_hash(entry[k].stats) & mask; slot[h]; h = (h + 1) & mask)
                    ;
                slot[h] = k + 1;
            }
        }
    }
    if ((out = PyTuple_New(used)) == NULL)
        goto done;
    for (k = 0; k < used; k++) {
        if ((item = Py_BuildValue("(Nn)", stats_tuple(entry[k].stats), entry[k].count)) == NULL) {
            Py_CLEAR(out);
            break;
        }
        PyTuple_SET_ITEM(out, k, item);
    }
done:
    if (out == NULL && !PyErr_Occurred())
        PyErr_NoMemory();
    PyMem_Free(buf);
    PyMem_Free(entry);
    PyMem_Free(slot);
    return out;
}

static PyMethodDef core_methods[] = {
    {"words_of", words_of, METH_O,
     "words_of(parts)\n--\n\n"
     "Sorted list of all generalized Stirling words with content ``parts``."},
    {"enum_counts", enum_counts, METH_O,
     "enum_counts(parts)\n--\n\n"
     "``(total, distinct)`` sizes of the insertion-construction output."},
    {"is_stirling", (PyCFunction)(void (*)(void))is_stirling, METH_FASTCALL,
     "is_stirling(word, parts)\n--\n\n"
     "Content check against ``parts`` plus the nesting property."},
    {"brute_count", brute_count, METH_O,
     "brute_count(parts)\n--\n\n"
     "Count Stirling words by filtering every multiset permutation."},
    {"profile12", profile12, METH_O,
     "profile12(word)\n--\n\n"
     "The twelve comparison statistics; see the pure backend docstring."},
    {"classify_letter", (PyCFunction)(void (*)(void))classify_letter, METH_FASTCALL,
     "classify_letter(word, x)\n--\n\n"
     "Value class of letter ``x`` (0 fixed, 1 free descent-plateau value,\n"
     "2 single double-descent value, 3 double-ascent value)."},
    {"phi_letter", (PyCFunction)(void (*)(void))phi_letter, METH_FASTCALL,
     "phi_letter(word, x)\n--\n\n"
     "One hop of the letter action; see the pure backend docstring."},
    {"joint_hist", joint_hist, METH_O,
     "joint_hist(parts)\n--\n\n"
     "``(profile12 tuple, word count)`` pairs over ``words_of(parts)``, in\n"
     "order of first occurrence."},
    {"gfs_scan", gfs_scan, METH_O,
     "gfs_scan(parts)\n--\n\n"
     "Check the hopping action orbit by orbit: ``None`` on a pass, or\n"
     "``(check, word, letter)`` at the first failure; see the pure backend\n"
     "docstring."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef core_module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "stirlingperms._core",
    .m_doc = "Compiled kernels; mirrors ``stirlingperms._pure`` function for function.",
    .m_size = -1,
    .m_methods = core_methods,
};

PyMODINIT_FUNC
PyInit__core(void)
{
    PyObject *mod = PyModule_Create(&core_module);
    if (mod == NULL
        || PyModule_AddStringConstant(mod, "BACKEND_NAME", "c") < 0
        || PyModule_AddStringConstant(mod, "SOURCE_SHA256", SOURCE_SHA256) < 0
        || PyModule_AddIntConstant(mod, "FIXED", FIXED) < 0
        || PyModule_AddIntConstant(mod, "FREE_DESCENT_PLATEAU", FREE_DESCENT_PLATEAU) < 0
        || PyModule_AddIntConstant(mod, "SINGLE_DOUBLE_DESCENT", SINGLE_DOUBLE_DESCENT) < 0
        || PyModule_AddIntConstant(mod, "DOUBLE_ASCENT", DOUBLE_ASCENT) < 0) {
        Py_XDECREF(mod);
        return NULL;
    }
    return mod;
}
