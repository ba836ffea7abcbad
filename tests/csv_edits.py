"""Seeded edits of a CSV file's text, for tests that compare a block reader with a
row-by-row reference on the files they make."""


def edited(text, kind, line, other, column, token):
    """``text``, a CSV's header and rows, with one edit of kind ``kind``.

    A row edit acts on row ``line`` (modulo the row count): it replaces, inserts or
    deletes field ``column`` (modulo the width), writing ``token``; or it deletes the
    row, repeats it at row ``other``, puts a blank line there, ends the row with
    ``\\r\\n``, quotes the field, breaks the row into two lines at the field, or
    drops the file's last line end. A whole-file edit empties the file, keeps only
    its header, or ends every line with ``\\r\\n``.
    """
    if kind == "empty file":
        return ""
    if kind == "crlf file":
        return text.replace("\n", "\r\n")
    lines = text.splitlines(keepends=True)
    if kind == "header only" or len(lines) < 2:  # no row to edit
        return "".join(lines[:1])
    header, *rows = lines
    i = line % len(rows)
    fields = rows[i].rstrip("\n").split(",")
    column %= len(fields)
    if kind == "delete":
        del rows[i]
    elif kind == "duplicate":
        rows.insert(other % (len(rows) + 1), rows[i])
    elif kind == "blank line":
        rows.insert(other % (len(rows) + 1), "\n")
    elif kind == "crlf line":
        rows[i] = rows[i].rstrip("\n") + "\r\n"
    elif kind == "no final newline":
        rows[-1] = rows[-1].rstrip("\n")
    else:
        if kind == "replace":
            fields[column] = token
        elif kind == "quoted field":
            fields[column] = '"' + fields[column].replace('"', '""') + '"'
        elif kind == "extra column":
            fields.insert(column, token)
        elif kind == "missing column":
            del fields[column]
        else:  # field to line break: two lines that hold one field fewer than a row
            fields = [",".join(fields[:column]) + "\n" + ",".join(fields[column + 1 :])]
        rows[i] = ",".join(fields) + "\n"
    return header + "".join(rows)
