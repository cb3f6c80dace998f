"""The five exceptions entsum raises on purpose, and who catches each.

``DataError`` is bad or inconsistent input; ``cli.main`` reports it with exit
code 2.  ``NumericError`` is a shape mismatch between arrays, a non-finite
loss or a non-finite score; ``cli.main`` reports it with exit code 3, and
``training.train_fold`` rewraps one raised while validating with the fold
and epoch.  The other three are ``DataError``s that carry more:

* ``MissingFile``: ``esbm`` catches it to try a split file's other name.
* ``MalformedLine``: ``dataset.load_entity`` catches it to name the gold
  file; it keeps the statement's ``line_no``.
* ``ParseError``: an unreadable line of a vector file or a per-entity TSV;
  it keeps the ``line_no``.
"""


class DataError(Exception):
    pass


class NumericError(Exception):
    pass


class MissingFile(DataError):
    def __init__(self, path):
        self.path = str(path)
        super().__init__(f"missing file: {self.path}")


class MalformedLine(DataError):
    def __init__(self, line_no: int, reason: str = ""):
        self.line_no = line_no
        msg = f"malformed statement on line {line_no}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)


class ParseError(DataError):
    def __init__(self, line_no: int, reason: str = ""):
        self.line_no = line_no
        msg = f"unparseable line {line_no}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)
